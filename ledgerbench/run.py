"""Dep-Miner benchmark: CSV/``Relation`` -> minimal cover + Armstrong relation.

Run from the root of a checkout::

    python3 ledgerbench/run.py --workload rows --seed 1 --seconds 10 --trace 0

Workloads (see NOTES.md for why each was chosen): ``rows`` and
``large_class`` name the generated table a run mines through the CSV and
the ``Relation`` routes.  Every untraced run then also serves the session
table with ``repro serve`` and drives it by a fixed script of appends and
reads, so every run reports every end-to-end metric.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
separate traced run.  Every run checks its outputs against an independent
reference computed in its own process after the timed part.

The second-to-last line of standard output is the run's record (raw
samples, tails, calibration witness, versions); the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is non-zero when any operation failed or any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import gen
from common import (
    HERE,
    ROOT,
    SRC,
    calibrate,
    calibrate_objects,
    child_env,
    cover_digest,
    median,
    percentile,
    rescale,
    summary,
)
from session import Client, Daemon, serve_accepts_backend, served_cover

#: Fresh set-ups per run; ``setup_s`` is their median.
BATCH_SETUPS = 7
#: Every this many session rounds also read keys and the Armstrong relation.
SESSION_READ_EVERY = 5
#: Seconds any one child process may take.
CHILD_TIMEOUT = 170.0

OUT = ROOT / ".ledgerbench-out"
SHM = Path("/dev/shm")


class Ledger:
    """Operations attempted and failed, and every child process started.

    Each child leads its own process group, so :meth:`close` can stop it
    together with anything it forked (worker pools, a daemon), even when
    the run ends on an error.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []
        self.children: List[subprocess.Popen] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def spawn(self, command: List[str], **kwargs) -> subprocess.Popen:
        process = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                                   start_new_session=True, **kwargs)
        self.children.append(process)
        return process

    def run_child(self, script: str, *args: str) -> bool:
        process = self.spawn([sys.executable, str(HERE / script), *args],
                             stdout=subprocess.DEVNULL)
        try:
            code = process.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            code = None
        return self.check(code == 0, f"{script} exited with {code}")

    def close(self) -> None:
        for process in self.children:
            if process.poll() is not None and _group_alive(process.pid):
                self.failures.append(
                    f"processes of child {process.pid} outlived it")
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            process.wait()


def _group_alive(pgid: int) -> bool:
    deadline = time.monotonic() + 2.0
    while True:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return False
        if time.monotonic() > deadline:
            return True
        time.sleep(0.05)


def _shm_segments() -> set:
    return set(os.listdir(SHM)) if SHM.is_dir() else set()


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


# -- batch mining of the workload's table -----------------------------------

def time_setups(ledger: Ledger, count: int):
    """Spawn-to-ready of fresh interpreters building a miner: the raw
    samples, the rescaled ones and the calibration witness."""
    samples, rescaled, calibration = [], [], [calibrate(3)]
    for _ in range(count):
        start = time.perf_counter()
        process = ledger.spawn(
            [sys.executable, str(HERE / "worker.py"), "setup"],
            stdout=subprocess.PIPE,
        )
        ready, _, _ = select.select([process.stdout], [], [], CHILD_TIMEOUT)
        line = process.stdout.readline() if ready else b""
        elapsed = time.perf_counter() - start
        process.stdout.close()
        process.wait(timeout=CHILD_TIMEOUT)
        calibration.append(calibrate(3))
        if ledger.check(line.strip() == b"ready" and process.returncode == 0,
                        "set-up did not reach a ready miner"):
            samples.append(elapsed)
            rescaled.append(rescale(elapsed, *calibration[-2:]))
    return samples, rescaled, calibration


def run_batch(args, work: Path, csv_path: Path, ledger: Ledger):
    setups, setups_rescaled, setup_calibration = time_setups(
        ledger, BATCH_SETUPS)
    if not ledger.run_child("worker.py", "mine", "--workload", args.workload,
                            "--seed", str(args.seed), "--seconds",
                            str(args.seconds), "--csv", str(csv_path),
                            "--out", str(work)):
        return None, {}
    mine = json.loads((work / "mine.json").read_text())
    ledger.attempted += mine["attempted"]
    ledger.failures += ["a repeated mine gave another output"] * mine["failed"]
    check_reference(args, work, ledger, mine["cover_digests"], args.workload)
    rescaled = dict(mine["rescaled"], setup_s=setups_rescaled)
    metrics = {
        "mine_csv_s": _metric(median(rescaled["mine_csv_s"]), "s"),
        "mine_relation_s": _metric(median(rescaled["mine_relation_s"]), "s"),
        "peak_rss_mib": _metric(mine["peak_rss_mib"], "MiB"),
        "setup_s": _metric(median(rescaled["setup_s"]), "s"),
    }
    record = {
        "raw": {name: summary(values) for name, values in
                dict(mine["samples"], setup_s=setups).items()},
        "rescaled": {name: summary(values)
                     for name, values in rescaled.items()},
        "calibration_s": summary(mine["calibration_s"] + setup_calibration),
        "miner_options": mine["options"],
    }
    return metrics, record


def check_reference(args, work: Path, ledger: Ledger,
                    digests: Dict[str, str], table: str,
                    appended_rounds: int = 0):
    """Compare covers, and the Armstrong relations saved in *work*, with
    reference.py's for *table*."""
    if not ledger.run_child("reference.py", "--table", table,
                            "--seed", str(args.seed), "--appended-rounds",
                            str(appended_rounds), "--dir", str(work)):
        return
    reference = json.loads((work / "reference.json").read_text())
    for name, digest in digests.items():
        ledger.check(digest == reference["cover_digest"],
                     f"{name}: cover differs from the reference")
    ledger.check(bool(reference["armstrong_ok"]),
                 "no Armstrong relation was checked")
    for name, ok in reference["armstrong_ok"].items():
        ledger.check(ok, f"{name}: not an Armstrong relation of the input")


# -- the served session ------------------------------------------------------

def run_session(args, work: Path, ledger: Ledger):
    """Serve the session table and drive it by the fixed script.

    Runs after the batch part: pinning the daemon with the caller pins
    this process too, and every child it started later would inherit it.
    """
    table = gen.SESSION_TABLE
    work = work / "session"
    work.mkdir()
    csv_path = work / "input.csv"
    csv_path.write_text(gen.csv_text(gen.attribute_names(table),
                                     gen.base_rows(table, args.seed)))
    backend = serve_accepts_backend()
    start = time.perf_counter()
    daemon = Daemon(work, backend)
    ledger.children.append(daemon.process)
    client = Client(daemon.host, daemon.port)
    status, reply, _ = client.register(csv_path)
    serve_setup = time.perf_counter() - start
    if not ledger.check(status == 201, f"register returned {status}"):
        daemon.shutdown(client)
        return None, {}

    # A calibration loop runs after every request, so each request is
    # bracketed by two loops and rescaled by them.
    samples: Dict[str, List[Tuple[float, float, float]]] = {
        name: [] for name in ("append", "cover", "keys", "armstrong")}
    calibration = [calibrate_objects()]

    def request(name: str, ok, what: str, method: str, route: str,
                payload=None):
        status, reply, seconds = client.call(method, route, payload)
        calibration.append(calibrate_objects())
        if ledger.check(status == 200 and ok(reply), f"{what}: {status}"):
            samples[name].append((seconds, *calibration[-2:]))
        return reply

    daemon.pin_with_caller()
    base = f"/sessions/{reply['session']['id']}"
    rows = len(gen.base_rows(table, args.seed))
    batches = gen.append_batches(table, args.seed, gen.SESSION_ROUNDS)
    try:
        for number, batch in enumerate(batches, 1):
            rows += len(batch)
            request("append", lambda r: r["cover"]["num_rows"] == rows,
                    f"append {number}", "POST", base + "/append",
                    {"rows": [list(r) for r in batch]})
            cover = request("cover", bool, f"cover {number}", "GET",
                            base + "/cover")
            if number % SESSION_READ_EVERY == 0:
                request("keys", bool, f"keys {number}", "GET",
                        base + "/keys")
                armstrong = request("armstrong", bool, f"armstrong {number}",
                                    "GET", base + "/armstrong")
        peak = daemon.vm_hwm_mib()
    finally:
        ledger.check(daemon.shutdown(client),
                     "session daemon: shutdown past its timeout")

    (work / "armstrong-session.json").write_text(json.dumps({
        "construction": armstrong["construction"],
        "rows": armstrong["armstrong"]["rows"],
    }))
    check_reference(args, work, ledger,
                    {"session": cover_digest(served_cover(cover))},
                    table, appended_rounds=len(batches))
    raw = {name: [1e3 * seconds for seconds, _, _ in timed]
           for name, timed in samples.items()}
    ms = {name: [1e3 * rescale(*sample) for sample in timed]
          for name, timed in samples.items()}
    metrics = {
        "append_p50_ms": _metric(percentile(ms["append"], 50), "ms"),
        "cover_p50_ms": _metric(percentile(ms["cover"], 50), "ms"),
        "keys_p50_ms": _metric(percentile(ms["keys"], 50), "ms"),
        # Raw: a fixed ~40 ms stall on small replies (NOTES.md) makes up
        # most of this read, and host speed does not scale it.
        "armstrong_p50_ms": _metric(percentile(raw["armstrong"], 50), "ms"),
        "serve_rss_mib": _metric(peak, "MiB"),
    }
    record = {
        "raw": {f"{name}_ms": summary(values)
                for name, values in raw.items()},
        "rescaled": {f"{name}_ms": summary(values)
                     for name, values in ms.items()},
        # One spawn-to-registered set-up: a record, not a metric.
        "serve_setup_s": serve_setup,
        "calibration_s": summary(calibration),
        "script": {"rounds": len(batches), "rows_per_append":
                   gen.APPEND_ROWS, "read_every": SESSION_READ_EVERY},
        "serve_backend_flag": backend,
    }
    return metrics, record


# -- the traced run ----------------------------------------------------------

def run_traced(args, work: Path, csv_path: Path, ledger: Ledger):
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    if not ledger.run_child("layers.py", "--workload", args.workload,
                            "--seed", str(args.seed), "--seconds",
                            str(args.seconds), "--csv", str(csv_path),
                            "--work", str(work), "--spans", str(spans)):
        return None, {}
    layers = json.loads((work / "layers.json").read_text())
    ledger.attempted += layers["attempted"]
    ledger.failures += layers["failures"]
    check_reference(args, work, ledger, {"traced": layers["cover_digest"]},
                    args.workload)
    record = {"absent": layers["absent"], "spans_file": str(spans),
              "spans": layers["spans"]}
    return layers["metrics"], record


# -- entry point -------------------------------------------------------------

def _versions() -> Dict[str, object]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    shm_before = _shm_segments()
    ledger = Ledger()
    metrics, record = None, {}
    try:
        csv_path = work / "input.csv"
        csv_path.write_text(gen.csv_text(
            gen.attribute_names(args.workload),
            gen.base_rows(args.workload, args.seed)))
        if args.trace:
            metrics, record = run_traced(args, work, csv_path, ledger)
        else:
            metrics, record = run_batch(args, work, csv_path, ledger)
            if metrics is not None:
                served, record["session"] = run_session(args, work, ledger)
                metrics = None if served is None else dict(metrics, **served)
    except Exception as error:  # noqa: BLE001 - report it as a failure
        ledger.failures.append(f"{type(error).__name__}: {error}")
    finally:
        ledger.close()
        for name in sorted(_shm_segments() - shm_before):
            ledger.failures.append(f"shared-memory segment {name} leaked")
            (SHM / name).unlink(missing_ok=True)
        shutil.rmtree(work, ignore_errors=True)

    if metrics is None:
        ledger.failures.append("the run produced no metrics")
        metrics = {}
    failed = len(ledger.failures)
    record.update(_versions(), workload=args.workload, seed=args.seed,
                  trace=args.trace, failures=ledger.failures)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0,
                      "attempted": max(ledger.attempted, failed, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
