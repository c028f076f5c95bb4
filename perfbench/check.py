"""Output check for one benchmark run, written apart from the pipeline code.

Part 1 reads the artifacts as plain JSON lines and tests them against the
synthetic ground truth: subclass precision must not fall from raw to
confirmed to reliable, every gap must be true, and at least 90% of the
planted unfamiliar truths among the extrapolated triples must come out as
gaps. Part 2 is a digest of the sorted (s, r, o) set of every triple class
plus the corpus (instruction, output) pairs. Formatting choices of the
artifact files (key order, whitespace, extra fields) do not enter the
digest; a change in which triples land in which class does.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

CLASS_FILES = {
    "raw": "raw.jsonl",
    "confirmed": "confirmed.jsonl",
    "reliable": "reliable.jsonl",
    "extrapolated": "extrapolated.jsonl",
    "gaps": "gaps.jsonl",
}
SUBCLASS, SYNONYM = "SubclassOf", "SynonymOf"
MIN_GAP_RECALL = 0.9


class Truth:
    """Ground truth rebuilt from GroundTruth.to_json_obj(): a subclass
    statement holds when the object's synonym class is a strict ancestor of
    the subject's; a synonym statement when both name one class."""

    def __init__(self, gt_obj: dict, seed: int, familiarity_rate: float) -> None:
        self.rep = {m.casefold(): members[0].casefold()
                    for members in gt_obj["synonym_classes"] for m in members}
        parents: dict[str, list[str]] = {}
        for child, parent in gt_obj["edges"]:
            parents.setdefault(child.casefold(), []).append(parent.casefold())
        self.ancestors: dict[str, set[str]] = {}
        for key in set(self.rep.values()):
            seen, stack = set(), list(parents.get(key, ()))
            while stack:
                node = stack.pop()
                if node not in seen:
                    seen.add(node)
                    stack.extend(parents.get(node, ()))
            self.ancestors[key] = seen
        self.seed = seed
        self.familiarity_rate = familiarity_rate

    def holds(self, s: str, r: str, o: str) -> bool:
        rep_s, rep_o = self.rep.get(s.casefold()), self.rep.get(o.casefold())
        if rep_s is None or rep_o is None:
            return False
        if r == SYNONYM:
            return rep_s == rep_o and s.casefold() != o.casefold()
        return rep_o in self.ancestors[rep_s]

    def familiar(self, s: str, r: str, o: str) -> bool:
        """The synthetic model's familiarity draw: a blake2b-derived uniform
        value per unordered pair of synonym classes, under the model seed."""
        rep_s = self.rep.get(s.casefold(), s.casefold())
        rep_o = self.rep.get(o.casefold(), o.casefold())
        lo, hi = sorted((rep_s, rep_o))
        payload = "\x1f".join((str(self.seed), "familiar", r, lo, hi)).encode("utf-8")
        unit = int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big") / 2.0**64
        return unit < self.familiarity_rate


def _read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_classes(out_dir: Path) -> tuple[dict[str, list[tuple[str, str, str]]], list]:
    classes = {name: sorted((rec["s"], rec["r"], rec["o"])
                            for rec in _read_jsonl(out_dir / fname))
               for name, fname in CLASS_FILES.items()}
    corpus = sorted((e["instruction"], e["output"])
                    for e in _read_jsonl(out_dir / "corpus.jsonl"))
    return classes, corpus


def digest(classes: dict, corpus: list) -> str:
    canonical = json.dumps({"classes": classes, "corpus": corpus},
                           ensure_ascii=False, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def check_run(out_dir: Path, truth: Truth) -> tuple[int, str, list[str]]:
    """Return (raw triple count, digest, problems); no problems means the
    run's outputs are correct as far as part 1 can tell."""
    classes, corpus = read_classes(out_dir)
    problems = []

    precisions = []
    for name in ("raw", "confirmed", "reliable"):
        subs = [t for t in classes[name] if t[1] == SUBCLASS]
        if not subs:
            problems.append(f"no {name} subclass triples")
            continue
        precisions.append(sum(truth.holds(*t) for t in subs) / len(subs))
    if len(precisions) == 3 and not precisions[0] <= precisions[1] <= precisions[2]:
        problems.append("subclass precision falls from raw to confirmed to reliable: "
                        + " / ".join(f"{p:.4f}" for p in precisions))

    false_gaps = [t for t in classes["gaps"] if not truth.holds(*t)]
    if false_gaps:
        problems.append(f"{len(false_gaps)} gap(s) false in the ground truth, "
                        f"first {false_gaps[0]}")

    gaps = set(classes["gaps"])
    planted = [t for t in classes["extrapolated"]
               if truth.holds(*t) and not truth.familiar(*t)]
    if planted:
        recall = sum(t in gaps for t in planted) / len(planted)
        if recall < MIN_GAP_RECALL:
            problems.append(f"gap recall {recall:.3f} of {len(planted)} planted "
                            f"unfamiliar truths is below {MIN_GAP_RECALL}")

    return len(classes["raw"]), digest(classes, corpus), problems
