"""Which ``src/repro`` functions do the entry points actually call?

A stdlib-only reachability tracer.  ``record`` runs one command under
``sys.setprofile`` and ``threading.setprofile`` (so thread-pool workers
count too) and appends one JSONL record per ``src/repro`` function it
saw called: ``{"file", "line", "name", "run"}``, where ``line`` is the
code object's first line (the first decorator line for a decorated
function).  ``summary`` parses every function defined under
``src/repro`` with :mod:`ast` and lists, grouped by file, each one that
no record names.  A function listed by the summary is a deletion
candidate, not a verdict: check its static callers too.

Usage, from the root of a checkout::

    python tools/trace_reach.py record --out r.jsonl -m repro selftest
    python tools/trace_reach.py record --out r.jsonl examples/quickstart.py
    python tools/trace_reach.py summary r.jsonl

The command set whose union defines "reached" (one ``record`` each,
all appending to the same file; a wrapped line continues the one
above)::

    -m repro selftest
    -m repro bench --quick --check --workers 2 --out b.json
        --trace-out t.json --metrics-out m.jsonl
        --baseline <copy of benchmarks/history>
    -m repro bench --quick --check --devices 4 --out s.json
    -m repro serve-chaos --quick
    -m repro serve-chaos --batcher continuous --quick
    -m repro serve-chaos --quick --batcher continuous --devices 4 --shard dp
    -m repro generate --quick --check --fault-rate 0.2
        --kv-capacity-tokens 128 --out g.json
    -m repro loadtest --quick --check --report-out l.json
    -m repro explain --quick --check --json e.json --trace-out et.json
    -m repro metrics --quick --check --out m.prom
    -m repro experiments --summary
    -m repro profile
    -m repro compare
    -m repro devices
    examples/reproduce_paper.py
    perfbench/run.py --workload <w> --seed 1 --seconds 3 --trace 0
        (once for each of the three workloads)

The ``--workers 2`` leg and the encoder-offline perfbench run (every
forward fans out over the host default executor) reach the row-split
path of ``encoder_layer_packed``.
``perfbench/run.py`` re-executes itself unless ``PYTHONHASHSEED=0`` is
already set, which would drop the tracer, so set it for those runs.
Child processes are not traced.
"""

from __future__ import annotations

import argparse
import ast
import json
import runpy
import sys
import threading
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def record(args: argparse.Namespace) -> int:
    src = Path(args.src).resolve()
    package = src / "repro"
    seen: set = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    if args.module is None and not args.command:
        raise SystemExit("record: give -m MODULE or a script path")
    if args.module is not None:
        target, argv = args.module, args.command
        run = " ".join(["-m", target, *argv])
    else:
        target, argv = args.command[0], args.command[1:]
        run = " ".join(args.command)
    sys.path.insert(0, str(src))
    if args.module is None:
        # as ``python script.py`` does: the script's directory goes first
        sys.path.insert(0, str(Path(target).resolve().parent))
    sys.argv = [target, *argv]
    code = 0
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        if args.module is not None:
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(bool(exc.code))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    rows = sorted(
        {
            (str(path.relative_to(src)), c.co_firstlineno, c.co_name)
            for c in seen
            if (path := Path(c.co_filename).resolve()).is_relative_to(package)
        }
    )
    with open(args.out, "a") as fh:
        for file, line, name in rows:
            rec = {"file": file, "line": line, "name": name, "run": run}
            fh.write(json.dumps(rec) + "\n")
    print(
        f"trace_reach: {run!r} reached {len(rows)} functions (exit {code})",
        file=sys.stderr,
    )
    return code


def defined_functions(src: Path) -> list[tuple[str, int, str, int]]:
    """``(file, first line, name, line count)`` of every function under
    ``src/repro``; the first line is the first decorator's, as in
    ``co_firstlineno``."""
    out = []
    for path in sorted((src / "repro").rglob("*.py")):
        rel = str(path.relative_to(src))
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = [d.lineno for d in node.decorator_list]
                first = min([node.lineno, *decorators])
                lines = node.end_lineno - first + 1
                out.append((rel, first, node.name, lines))
    return out


def summary(args: argparse.Namespace) -> int:
    reached = set()
    for name in args.records:
        with open(name) as fh:
            for line in fh:
                rec = json.loads(line)
                reached.add((rec["file"], rec["line"], rec["name"]))
    functions = defined_functions(Path(args.src).resolve())
    missed = [f for f in functions if f[:3] not in reached]
    by_file = defaultdict(list)
    for file, line, name, lines in missed:
        by_file[file].append((line, name, lines))
    for file in sorted(by_file):
        entries = by_file[file]
        total = sum(e[2] for e in entries)
        print(f"{file}  ({len(entries)} functions, {total} lines)")
        for line, name, lines in entries:
            print(f"    {line:5d}  {name}  ({lines} lines)")
    print(
        f"defined: {len(functions)} functions, "
        f"{sum(f[3] for f in functions)} lines; reached by none: "
        f"{len(missed)} functions, {sum(f[3] for f in missed)} lines"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", default=str(SRC), help="directory holding the repro package"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser(
        "record", help="run one command, append the functions it called"
    )
    rec.add_argument("--out", required=True, help="JSONL file to append to")
    rec.add_argument("-m", dest="module", help="run a module as python -m")
    rec.add_argument(
        "command",
        nargs=argparse.REMAINDER,
        help="the module's arguments, or a script path and its arguments",
    )
    summ = sub.add_parser("summary", help="list functions no record names")
    summ.add_argument("records", nargs="+", help="JSONL files from record")
    args = parser.parse_args(argv)
    return record(args) if args.cmd == "record" else summary(args)


if __name__ == "__main__":
    sys.exit(main())
