#!/usr/bin/env python
"""End-to-end smoke test of the always-on calibration service.

Drives the real ``python -m repro serve`` daemon through the full crash
story and asserts the repo's acceptance property at the process level:

1. a **reference** daemon runs straight through to completion;
2. a second daemon over the same spool is **SIGKILL'd** as soon as its
   first window seals (so the kill lands mid-run, with later windows
   in flight or pending);
3. a **restarted** daemon resumes from the checkpoint store and drains
   the remaining windows;
4. every sealed forecast artifact of the killed-and-restarted run must
   be **byte-identical** to the reference run's.

The spool also holds ``bad.csv``, a file that is not UTF-8: every daemon
start must quarantine it as one ``malformed`` row and carry on, so the
reference run's ``quarantine.jsonl`` holds exactly that one row (the
killed-and-restarted run logs it once per start).

Exit code 0 on success; non-zero with a diagnostic on any mismatch.
Used by the ``service`` CI job; also runnable by hand:

    python scripts/service_smoke.py --workdir /tmp/smoke
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
N_WINDOWS = 2  # --window-breaks 8,15,22 below

SERVE_ARGS = [
    "--window-breaks", "8,15,22",
    "--draws", "12", "--replicates", "2", "--resample", "16",
    "--seed", "17", "--executor", "serial",
    "--poll-seconds", "0.05",
    "--exit-when-done",
]


def build_spool(workdir: Path) -> Path:
    """Write the observed-cases series as one immutable spool file."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.sim import make_fig2_ground_truth
    from repro.viz.export import write_series_csv

    truth = make_fig2_ground_truth(seed=777, horizon=26)
    spool = workdir / "spool"
    spool.mkdir(parents=True)
    tmp = spool / "cases.csv.part"
    write_series_csv(tmp, {"cases": truth.observed_cases})
    tmp.rename(spool / "cases.csv")  # write-then-rename spool contract
    (spool / "bad.csv").write_bytes(b"day,series,value\n0,cases,\xff\n")
    return spool


def serve_cmd(spool: Path, root: Path) -> list[str]:
    return [sys.executable, "-m", "repro", "serve",
            "--spool", str(spool),
            "--artifacts", str(root / "art"),
            "--checkpoint-dir", str(root / "ckpt"),
            *SERVE_ARGS]


def serve_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def run_to_completion(spool: Path, root: Path, label: str) -> None:
    print(f"[{label}] running serve to completion", flush=True)
    result = subprocess.run(serve_cmd(spool, root), env=serve_env(),
                            timeout=300, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        sys.exit(f"[{label}] serve exited {result.returncode}:\n"
                 f"{result.stdout}")


def run_and_kill(spool: Path, root: Path) -> None:
    """Start the daemon, SIGKILL it the moment window 0 seals."""
    seal = root / "art" / "window_000" / "SEALED.json"
    print("[killed] starting serve, waiting for the first seal", flush=True)
    proc = subprocess.Popen(serve_cmd(spool, root), env=serve_env(),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.STDOUT)
    deadline = time.monotonic() + 300
    try:
        while not seal.exists():
            if proc.poll() is not None:
                sys.exit(f"[killed] daemon exited early ({proc.returncode}) "
                         "before the first window sealed")
            if time.monotonic() > deadline:
                sys.exit("[killed] timed out waiting for the first seal")
            time.sleep(0.01)
    finally:
        proc.kill()  # SIGKILL: no drain, no cleanup — the crash under test
    proc.wait(timeout=60)
    print("[killed] SIGKILL delivered after window 0 sealed", flush=True)


def artifact_bytes(root: Path) -> dict:
    out = {}
    for index in range(N_WINDOWS):
        path = root / "art" / f"window_{index:03d}" / "forecast.json"
        if not path.exists():
            sys.exit(f"missing artifact after completion: {path}")
        out[index] = path.read_bytes()
    return out


def quarantined(root: Path) -> list[dict]:
    path = root / "art" / "quarantine.jsonl"
    if not path.exists():
        sys.exit(f"no quarantine log at {path}")
    return [json.loads(line) for line in path.read_text().splitlines()]


def check_quarantine(root: Path, label: str, starts: int) -> None:
    """The undecodable spool file is one ``malformed`` row per start."""
    rows = quarantined(root)
    expected = [("bad.csv", "malformed")] * starts
    if [(r["source"], r["reason"]) for r in rows] != expected:
        sys.exit(f"[{label}] quarantine.jsonl holds {rows}, expected "
                 f"{expected}")
    print(f"[{label}] quarantine.jsonl: {len(rows)} malformed row(s) for "
          "bad.csv", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", type=Path, default=None,
                        help="scratch directory (default: a fresh tempdir, "
                             "removed on success)")
    args = parser.parse_args()

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="service-smoke-"))
    workdir.mkdir(parents=True, exist_ok=True)
    spool = build_spool(workdir)

    run_to_completion(spool, workdir / "ref", label="reference")
    run_and_kill(spool, workdir / "killed")
    run_to_completion(spool, workdir / "killed", label="restarted")

    reference = artifact_bytes(workdir / "ref")
    recovered = artifact_bytes(workdir / "killed")
    for index in range(N_WINDOWS):
        if reference[index] != recovered[index]:
            sys.exit(f"window {index}: killed-and-restarted artifact "
                     "differs from the straight-through run")
        print(f"window {index}: byte-identical "
              f"({len(reference[index])} bytes)", flush=True)
    check_quarantine(workdir / "ref", "reference", starts=1)
    check_quarantine(workdir / "killed", "killed+restarted", starts=2)

    if args.workdir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    print("PASS: kill-and-restart artifacts are byte-identical", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
