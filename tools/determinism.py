"""Determinism check: every reach-matrix form writes the same bytes in two interpreters.

Runs each form of ``tools/reach.py``'s ``MATRIX`` as ``python -m repro <form>
--scale <scale>`` at ``tiny`` and ``small``, each run in a fresh interpreter, once
under ``PYTHONHASHSEED=0`` and once under ``=1``.  Every run starts from the same
empty scratch path (``TMP`` and the table store), so both sides see the same paths.
It compares stdout and every file the form writes; only the ``--profile`` table
and ``serve``'s ``serving on`` port are masked.  Each form also runs once more
against the table store its ``PYTHONHASHSEED=0`` run filled (a warm store: the
scenario Internet is attached, not built), and must match that run byte for
byte.  A form that passes ``--workers``
or ``--shards`` must also match the same form without them, on stdout and its
``--out``/``--output``/``--outdir`` files (its metrics and trace count pool work).
Prints one line per mismatch and a summary; exits 1 on any mismatch.

    PYTHONPATH=src python tools/determinism.py
"""

import os
import pathlib
import re
import runpy
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
MATRIX = runpy.run_path(str(ROOT / "tools" / "reach.py"))["MATRIX"]
SCALES = ("tiny", "small")
FANOUT = ("--workers", "--shards")
#: Files whose contents count pool work, so a pooled form's differ from its in-process form's.
POOL_COUNTED = ("--metrics-out", "--trace-out")


def mask(stdout: bytes) -> bytes:
    """Stdout without the two parts that vary between runs: the ``--profile``
    table (wall clock) and the port ``serve`` listens on."""
    stdout = stdout.split(b"profile (wall clock, opt-in):")[0]
    return re.sub(rb"(serving on http://127\.0\.0\.1:)\d+", rb"\1PORT", stdout)


def run(form: str, scale: str, hashseed: int, scratch, warm: bool = False) -> dict:
    """``repro <form> --scale <scale>`` in a fresh interpreter under ``hashseed``:
    ``{"stdout": masked stdout, "TMP/<name>": bytes of each file it wrote}``.
    ``warm`` keeps the table store the previous run left."""
    scratch = pathlib.Path(scratch)
    tmp, tables = scratch / "tmp", scratch / "tables"
    for directory in (tmp,) if warm else (tmp, tables):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed), REPRO_TABLE_CACHE=str(tables),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "repro", *form.replace("TMP", str(tmp)).split(), "--scale", scale]
    done = subprocess.run(argv, env=env, capture_output=True, check=False)
    if done.returncode != 0:
        return {"exit": b"%d %s" % (done.returncode, done.stderr[-300:])}
    outputs = {"stdout": mask(done.stdout)}
    outputs.update((f"TMP/{path.relative_to(tmp).as_posix()}", path.read_bytes())
                   for path in sorted(tmp.rglob("*")) if path.is_file())
    return outputs


def in_process(form: str) -> str:
    """``form`` without its ``--workers``/``--shards`` flags and their values."""
    tokens = form.split()
    return " ".join(token for index, token in enumerate(tokens)
                    if token not in FANOUT and (index == 0 or tokens[index - 1] not in FANOUT))


def differ(first: dict, second: dict, skip=()) -> list:
    """Names of the outputs (stdout, files, exit) that differ, outside ``skip``."""
    return sorted(name for name in first.keys() | second.keys()
                  if name not in skip and first.get(name) != second.get(name))


def check(forms, scales) -> list:
    """One line per mismatch over ``forms`` x ``scales``: hash seed 0 vs 1,
    cold vs warm table store (seed 0), and each pooled form (seed 0) vs its
    in-process form (seed 0)."""
    runs, mismatches = {}, []
    with tempfile.TemporaryDirectory() as scratch:
        def outputs(form, scale, hashseed):
            if (form, scale, hashseed) not in runs:
                runs[form, scale, hashseed] = run(form, scale, hashseed, scratch)
            return runs[form, scale, hashseed]

        for scale in scales:
            for form in forms:
                # The warm run must follow the cold run that filled its store.
                seeded = runs[form, scale, 0] = run(form, scale, 0, scratch)
                inline = in_process(form)
                found = [f"exit {seeded['exit'].decode(errors='replace').strip()}"] if "exit" in seeded else []
                found += [f"{name} differs on a warm table store"
                          for name in differ(seeded, run(form, scale, 0, scratch, warm=True))]
                found += [f"{name} differs under PYTHONHASHSEED=0/1"
                          for name in differ(seeded, outputs(form, scale, 1))]
                if inline != form:
                    tokens = form.split()
                    skip = {tokens[index + 1] for index, token in enumerate(tokens[:-1])
                            if token in POOL_COUNTED}
                    found += [f"{name} differs from repro {inline}"
                              for name in differ(seeded, outputs(inline, scale, 0), skip)]
                print(f"{scale:5s} {'FAIL' if found else 'ok':4s} repro {form}", flush=True)
                mismatches += [f"{scale}: repro {form}: {line}" for line in found]
    return mismatches


def main() -> int:
    """Run the check over the matrix at both scales; print each mismatch and
    a summary line."""
    mismatches = check(MATRIX, SCALES)
    for line in mismatches:
        print(line)
    print(f"determinism: {len(MATRIX)} forms x {len(SCALES)} scales, "
          f"{len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
