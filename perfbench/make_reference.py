"""Regenerate perfbench/reference.json from the checkout's src/ at workers=1.

    python3 perfbench/make_reference.py

The reference holds what the benchmark's checks compare against: the exact
n=25 report bytes, the CNF sizes of the encoded spaces and the
found/none verdict of every exhaustively searched space.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from majcirc import construct, search, verify  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    pipeline = workloads.full_workloads({"exact_block25": None, "search_pipeline": None})["search_pipeline"]
    exact = construct.build_block_circuit(construct.BlockParams(25, 5, 5))
    encode = {}
    for n, k in pipeline.encode_nk:
        inst = search.encode(search.SearchSpaceSpec(n=n, k=k, multiplicity_max=pipeline.multiplicity))
        encode[f"{n},{k}"] = [inst.num_vars, len(inst.clauses)]
    exhaustive = {
        f"{n},{k},{m}": search.exhaustive_search(search.SearchSpaceSpec(n=n, k=k, multiplicity_max=m)) is not None
        for n, k, m in pipeline.exhaustive
    }
    reference = {
        "exact_block25": verify.verify_minmax(exact, workers=1).to_json(),
        "search_pipeline": {"encode": encode, "exhaustive": exhaustive},
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
