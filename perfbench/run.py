"""cofrelay benchmark: seeded sweep workloads driven through ``cofrelay.cli.main``.

    python3 perfbench/run.py --workload fig2-snr --seed 1 --seconds 30 --trace 0

One client runs sweeps one after another (a closed loop). A run is a fixed
list of blocks made from the seed; each block is one ``cofrelay sweep``
invocation on its own master seed, plus, on ``oracle-n2``, one
``harness.oracle_grid`` call per record. After the list, blocks are
repeated from the start until ``--seconds`` have passed (at least one), and
each repeat must reproduce its first records.csv byte for byte.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the block
list untraced and then traced, prints the per-layer metrics with the
tracing overhead, and writes the spans to ``perfbench/out``. The last line
of standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with the machine
block, every check failure and the records.csv sha256, is written next to
the spans.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracer import Tracer, layer_metrics

# One BLAS thread, set before numpy loads: cofrelay's matrices are at most
# 8 x 8, below OpenBLAS's threading thresholds, so a second thread only adds
# start-up and spin time. On a 2-core machine shared with other loads, that
# made the import time swing by about half with the load on the other core.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The default seed is the one used while building and tuning; claims of a
# gain must also hold on the held-out seed, which tuning never used.
DEFAULT_SEED = 1
HELDOUT_SEED = 918273

SETUP_REPEATS = 9


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict                  # cofrelay config keys; one block = one sweep
    block_s: float                # block wall time on the reference machine
    oracle_resolution: int = 0    # > 0: check scheme 1 against oracle_grid

    @property
    def schemes(self):
        return tuple(int(s) for s in self.config["schemes"].split(","))

    @property
    def points(self):
        return len(self.config["axis_values"].split(","))

    def block_config(self, master_seed):
        return dict(self.config, master_seed=str(master_seed))

    def sweep_argv(self, master_seed, out_dir):
        argv = ["sweep"]
        for key, val in self.block_config(master_seed).items():
            flag = "seed" if key == "master_seed" else key.replace("_", "-")
            argv += [f"--{flag}", val]
        return argv + ["--out-dir", str(out_dir)]


WORKLOADS = {w.name: w for w in (
    # The paper's headline figure: SDP solves inside the scheme-1 multi-start
    # alternation dominate, and the low-SNR points carry the tail.
    Workload("fig2-snr", {"n": "4", "schemes": "1,2,3,4", "axis": "snr",
                          "axis_values": "0,5,10,15,20,25,30",
                          "snr_db": "20", "pc_dbm": "10", "trials": "1"},
             block_s=0.55),
    # The fig3 axis with the fixed-vector schemes only: no SDP at all, so the
    # per-trial Python work in design and harness is the whole cost.
    Workload("fixed-vector-pc", {"n": "4", "schemes": "3,4", "axis": "pc",
                                 "axis_values": "0,5,10,15,20",
                                 "snr_db": "20", "pc_dbm": "10",
                                 "trials": "100"},
             block_s=0.22),
    # The only workload with an optimality reference: scheme 1 at N = 2
    # against the exhaustive grid oracle, whose arrays dominate memory.
    Workload("oracle-n2", {"n": "2", "schemes": "1", "axis": "snr",
                           "axis_values": "0,20", "snr_db": "20",
                           "pc_dbm": "10", "trials": "1"},
             block_s=0.65, oracle_resolution=64),
)}

END_TO_END_UNITS = {"setup_s": "s", "trials_per_s": "records/s",
                    "peak_rss_mb": "MB", "mean_p_r_db": "dB"}


def block_seed(workload, seed, k):
    """Master seed of block k: a stable hash of (workload, seed, k)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def import_cofrelay():
    """Import cofrelay from this checkout's src/ and nowhere else."""
    if not (SRC / "cofrelay" / "__init__.py").is_file():
        raise SystemExit(f"error: no cofrelay sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cofrelay
    import cofrelay.cli
    if Path(cofrelay.__file__).resolve().parent != SRC / "cofrelay":
        raise SystemExit(f"error: imported cofrelay from {cofrelay.__file__}")
    return cofrelay


_SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cofrelay, cofrelay.cli
from cofrelay import scenario
cfg = scenario.config_from_dict(json.loads(sys.argv[2]))
channels = [scenario.gen_channel(scenario.trial_seed(cfg.master_seed, t), cfg.n)
            for t in range(cfg.trials)]
print(time.perf_counter() - t0)
"""


def measure_setup(wl, seed):
    """Median over fresh interpreters of import + config + channel generation."""
    cfg = json.dumps(wl.block_config(block_seed(wl.name, seed, 0)))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-I", "-c", _SETUP_PROBE,
                               str(SRC), cfg], capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


@dataclass
class Checks:
    """Output checks; every failure is kept and counted."""
    failures: list = field(default_factory=list)
    failed_keys: set = field(default_factory=set)
    attempted: int = 0

    def fail(self, keys, message):
        self.failures.append(message)
        self.failed_keys.update(keys)


@dataclass
class Block:
    index: int
    wall_s: float
    records: int
    sha256: str


class Runner:
    def __init__(self, cofrelay, wl, seed, workdir):
        self.cr = cofrelay
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.checks = Checks()
        self.first_pass = {}      # block index -> Block
        self.lead_p_r_db = []     # lead-scheme dB powers, first pass only
        self.oracle_excess = []   # scheme-1 minus oracle, dB, first pass only
        self.csv_hash = hashlib.sha256()
        self.serial = 0

    def _oracle(self, master_seed):
        """Grid-oracle power per (snr_db, trial) for the block's channels."""
        sc, h = self.cr.scenario, self.cr.harness
        cfg = sc.config_from_dict(self.wl.block_config(master_seed))
        out = {}
        for t in range(cfg.trials):
            ch = sc.gen_channel(sc.trial_seed(master_seed, t), cfg.n)
            for snr in cfg.axis_values:
                params = sc.units_from_config(sc.with_overrides(
                    cfg, snr_db=snr, axis="none", axis_values=()))
                out[(snr, t)] = h.oracle_grid(
                    ch, params, resolution=self.wl.oracle_resolution)
        return out

    def run_block(self, k):
        """One sweep through the CLI (plus the oracle check), timed, then checked."""
        master_seed = block_seed(self.wl.name, self.seed, k)
        out_dir = self.workdir / f"b{k}"
        argv = self.wl.sweep_argv(master_seed, out_dir)
        sink = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(sink):
            code = self.cr.cli.main(argv)
        oracle = self._oracle(master_seed) if self.wl.oracle_resolution else {}
        wall = perf_counter() - t0

        expected = int(self.wl.config["trials"]) * self.wl.points * len(self.wl.schemes)
        self.checks.attempted += expected
        path = out_dir / "records.csv"
        data = path.read_bytes() if path.is_file() else b""
        shutil.rmtree(out_dir, ignore_errors=True)
        block = Block(k, wall, expected, hashlib.sha256(data).hexdigest())
        first = self.first_pass.get(k)
        if first is None:
            self.first_pass[k] = block
            self.csv_hash.update(data)
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        serial = self.serial
        self.serial += 1
        whole = [(serial, i) for i in range(expected)]
        if code != 0 or len(rows) != expected:
            self.checks.fail(whole, f"block {k} (seed {master_seed}): exit code "
                                    f"{code}, {len(rows)} of {expected} records")
        if first is not None and first.sha256 != block.sha256:
            self.checks.fail(whole, f"block {k} (seed {master_seed}): records.csv "
                                    f"differs on rerun")
        self._check_rows(serial, k, rows, oracle, record_values=first is None)
        return block

    def _check_rows(self, serial, k, rows, oracle, record_values):
        slack = self.cr.harness.MARGIN_SLACK
        power = {}
        lead = min(self.wl.schemes)
        for i, r in enumerate(rows):
            where = f"block {k} scheme {r['scheme']} snr {r['snr_db']} " \
                    f"pc {r['pc_dbm']} trial {r['trial']} seed {r['seed']}"
            if r["status"] != "ok":
                self.checks.fail([(serial, i)], f"{where}: status {r['status']}")
                continue
            margins = [float(r[c]) for c in ("margin_up1", "margin_up2",
                                             "margin_down1", "margin_down2")]
            betas = [float(r["beta1"]), float(r["beta2"])]
            if not all(m >= -slack for m in margins):
                self.checks.fail([(serial, i)], f"{where}: rate margins {margins}")
            if not all(0.0 <= b <= 1.0 for b in betas):
                self.checks.fail([(serial, i)], f"{where}: betas {betas}")
            p_db = float(r["p_r_db"])
            cell = (r["snr_db"], r["pc_dbm"], r["trial"])
            power.setdefault(cell, {})[int(r["scheme"])] = (10 ** (p_db / 10.0), i)
            if record_values and int(r["scheme"]) == lead:
                self.lead_p_r_db.append(p_db)
            if oracle and int(r["scheme"]) == 1:
                ref = oracle.get((float(r["snr_db"]), int(r["trial"])))
                if ref is None or not (math.isfinite(ref) and ref > 0.0):
                    self.checks.fail([(serial, i)], f"{where}: oracle power {ref}")
                elif record_values:
                    self.oracle_excess.append(p_db - 10.0 * math.log10(ref))
        # Per channel the schemes nest: the joint design is never worse than
        # a restricted one.
        for cell, p in power.items():
            for lo, hi in ((1, 2), (1, 3), (2, 4), (3, 4)):
                if lo in p and hi in p and p[lo][0] > p[hi][0] * (1.0 + 1e-6):
                    self.checks.fail([(serial, p[lo][1])],
                                     f"block {k} snr {cell[0]} pc {cell[1]} trial "
                                     f"{cell[2]}: scheme {lo} power {p[lo][0]:.9g} > "
                                     f"scheme {hi} power {p[hi][0]:.9g}")

    def run_list(self, count):
        return [self.run_block(k) for k in range(count)]


def blocks_for(wl, seconds):
    return max(1, round(seconds / wl.block_s))


def machine_block():
    import numpy as np
    info = {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = _blas_threads(np)
    info["cpu"] = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    info["git_commit"] = "not a git checkout"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                info["git_commit"] = proc.stdout.strip()
    return info


def _blas_threads(np):
    """OpenBLAS's own thread count, read through ctypes from numpy's bundle."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for so in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(so))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            getter = getattr(lib, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def run_untraced(runner, wl, seconds):
    """The block list, then repeats from block 0 until ``seconds`` have passed."""
    t0 = perf_counter()
    n = blocks_for(wl, seconds)
    blocks = runner.run_list(n)
    k = 0
    while k == 0 or perf_counter() - t0 < seconds:
        blocks.append(runner.run_block(k % n))
        k += 1
    return blocks


def end_to_end(runner, wl, seed, seconds):
    setup_s = measure_setup(wl, seed)
    blocks = run_untraced(runner, wl, seconds)
    lead = runner.lead_p_r_db
    metrics = {
        "setup_s": setup_s,
        "trials_per_s": statistics.median(b.records / b.wall_s for b in blocks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mean_p_r_db": math.fsum(lead) / len(lead) if lead else 0.0,
    }
    return blocks, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def per_layer(runner, wl, seconds, spans_path):
    n = blocks_for(wl, seconds / 2.0)
    plain = runner.run_list(n)
    with Tracer(runner.cr) as tracer:
        traced = runner.run_list(n)
    tracer.write(spans_path)
    metrics = layer_metrics(tracer.spans, tracer.rank_fallbacks)
    overhead = statistics.median(t.wall_s / p.wall_s for p, t in zip(plain, traced)) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return plain + traced, metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}); keep "
                        f"{HELDOUT_SEED} for checking a claimed gain")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    cofrelay = import_cofrelay()
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}_seed{args.seed}_trace{args.trace}"
    workdir = OUT / f"{stem}_pid{os.getpid()}"
    runner = Runner(cofrelay, wl, args.seed, workdir)
    try:
        if args.trace:
            blocks, metrics = per_layer(runner, wl, args.seconds,
                                        OUT / f"{stem}.spans.jsonl")
        else:
            blocks, metrics = end_to_end(runner, wl, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = runner.checks
    failed = len(checks.failed_keys)
    excess = runner.oracle_excess
    extra = {
        "fail_frac": (failed / checks.attempted, "ratio"),
        "oracle_excess_db_max": (max(excess) if excess else 0.0, "dB"),
        "oracle_excess_db_mean": (math.fsum(excess) / len(excess) if excess else 0.0,
                                  "dB"),
    }
    if args.trace:
        metrics.update(extra)
    machine = machine_block()
    result = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine,
        "blocks": [[b.index, b.wall_s, b.records] for b in blocks],
        "records_csv_sha256": runner.csv_hash.hexdigest(),
        "attempted": checks.attempted, "failed": failed,
        "failures": checks.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {wl.name}, seed {args.seed}, {len(blocks)} blocks "
          f"({len(runner.first_pass)} distinct), trace {args.trace}")
    print("machine " + json.dumps(machine))
    print(f"records.csv sha256 {result['records_csv_sha256']}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"output checks: {checks.attempted} records, {failed} failed, "
          f"{len(checks.failures)} failure messages")
    for msg in checks.failures[:50]:
        print(f"  FAIL {msg}")
    if len(checks.failures) > 50:
        print(f"  ... {len(checks.failures) - 50} more in {OUT / (stem + '.json')}")
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
