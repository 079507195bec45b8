"""Print one sha256 per report and polytope file of the bundled runs.

Every problem file goes through ``polyvar bound``.  Every model
goes through ``polyvar verify`` (its own template, when that has offsets)
and ``polyvar synthesize``; a 2-D model is also synthesized with
``--template uniform:3`` to ``uniform:8``, ``uniform:32`` and ``uniform:64``
(the many-facet programs, with far more rows than vertex classes).  Each polytope that a synthesis
writes is verified again with ``polyvar verify --polytope``.  Reports are
hashed with ``wall_time_s`` removed, so two checkouts that compute the same
results print the same lines:

    python tools/report_digest.py > digest.txt           # models/*.json
    python tools/report_digest.py more/*.json > more.txt  # other inputs

Run it in two checkouts and ``diff`` the outputs.  Each line is
``<sha256>  <run> <file> exit=<code>``; a run that writes no file prints
``-`` for the hash.  A ``synthesize`` report line ends in
``status=<status> iterations=<count>``, so a moved report shows whether
its outcome changed or only its bits.

A benchmark run keeps the inputs it generated from its seed under
``.perfbench_out/<workload>-s<seed>-t<trace>/inputs/``, so its items can
be digested too.  For the ``synth`` items of seeds 41 to 43:

    for s in 41 42 43; do
      python perfbench/run.py --workload synth --seed $s --seconds 1
    done
    python tools/report_digest.py .perfbench_out/synth-s4[123]-t0/inputs/*.json > synth.txt

The inputs depend only on the seed, ``perfbench/gen.py`` and ``models/``,
and each line names its input file by stem, so two checkouts that share
those can each digest their own ``.perfbench_out/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from polyvar.cli import main  # noqa: E402

UNIFORM = [f"uniform:{m}" for m in (*range(3, 9), 32, 64)]


def _digest(path: Path) -> str:
    if not path.exists():
        return "-"
    data = json.loads(path.read_text(encoding="utf-8"))
    data.pop("wall_time_s", None)
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _outcome(path: Path) -> str:
    """`` status=<s> iterations=<n>`` of a synthesis report, or ``""``."""
    if not path.exists():
        return ""
    data = json.loads(path.read_text(encoding="utf-8"))
    return f" status={data['status']} iterations={len(data['iterations'])}"


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _runs(path: Path, data: dict):
    """``(label, argv)`` for every run of one input file, in order; ``{out}``
    in an argv stands for the output directory."""
    name = path.stem
    if "polynomial" in data:
        yield f"bound {name}", ["bound", str(path), "--report", "{out}/report.json"]
        return
    if data.get("template", {}).get("offsets") is not None:
        yield f"verify {name}", ["verify", str(path), "--report", "{out}/report.json"]
    templates = [None] + (UNIFORM if len(data["field"]) == 2 else [])
    for spec in templates:
        argv = ["synthesize", str(path), "--report", "{out}/report.json",
                "--polytope", "{out}/polytope.json"]
        yield (f"synthesize {name}" + (f" {spec}" if spec else ""),
               argv + (["--template", spec] if spec else []))


def print_digests(paths) -> None:
    for path in paths:
        data = json.loads(path.read_text(encoding="utf-8"))
        for label, argv in _runs(path, data):
            with tempfile.TemporaryDirectory() as tmp:
                out = Path(tmp)
                code = _run([a.replace("{out}", tmp) for a in argv])
                report = out / "report.json"
                line = f"{_digest(report)}  {label} report exit={code}"
                if argv[0] != "synthesize":
                    print(line)
                    continue
                print(line + _outcome(report))
                polytope = out / "polytope.json"
                print(f"{_digest(polytope)}  {label} polytope")
                if polytope.exists():
                    code = _run(["verify", str(path), "--polytope", str(polytope),
                                 "--report", str(out / "reverify.json")])
                    print(f"{_digest(out / 'reverify.json')}  {label} reverify exit={code}")


if __name__ == "__main__":
    args = [Path(a) for a in sys.argv[1:]]
    print_digests(args or sorted((ROOT / "models").glob("*.json")))
