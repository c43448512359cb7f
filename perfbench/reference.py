"""Regenerate ``reference.json``: the check names of the stock ``verify``
bundle and the ``fa-queries`` result digests for the default seed.

Each digest is taken from the default (chain) route and cross-checked
once against ``--route recursive``; a mismatch aborts.  Run from the
repository root, on a commit whose outputs are known to be right:

    python3 perfbench/reference.py
"""

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402
from drinfeld import cli  # noqa: E402


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return json.loads(buf.getvalue())


def main():
    report = _run(["verify", "--json", "--seed", str(workloads.DEFAULT_SEED)])
    names = sorted({c["name"] for rep in report["reports"] for c in rep["checks"]})
    digests = []
    for query in workloads.fa_queries(workloads.DEFAULT_SEED):
        chain = workloads.fa_digest(_run(query["argv"]))
        recursive = workloads.fa_digest(_run(query["argv"] + ["--route", "recursive"]))
        if chain != recursive:
            raise SystemExit(f"routes disagree on {' '.join(query['argv'])}")
        digests.append(chain)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"verify_check_names": names, "fa_digests": digests}, fh, indent=0)
        fh.write("\n")
    print(f"{len(names)} check names, {len(digests)} fa digests")


if __name__ == "__main__":
    main()
