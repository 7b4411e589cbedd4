"""Benchmark of the swapornot library: one workload per run.

Run from the repository root:

    python3 bench/run.py --workload fpe_hot_key --seed 1 --seconds 10 --trace 0

Workloads (bench/README.md gives the reason for each):

* ``fpe_hot_key``: one key, 9-digit decimal strings (N = 10**9, mod-add),
  rounds=340, a random 8-byte tweak per record, encrypt and decrypt
  alternating.
* ``fpe_cold_keys_auto``: a fresh 32-byte key per op, 12-char base-36
  tokens, planned rounds (queries=10**12), 256-byte tweaks, encrypt only.
* ``mixlab_sweep``: ``swapornot mixlab --max-n 12 --max-q 3 --max-r 12
  --csv`` in process.  The sweep is fixed, so the seed does not change it.

One process, one thread, one closed-loop caller.  Before any timing the
golden corpus is regenerated and compared byte for byte with
``tests/data/golden_vectors.txt``, and ``PRF_ID`` is checked; if either
fails, nothing is measured and the exit code is 2.  Every op's output is
checked: fpe outputs against an independent reference after the timed
loop, sweep rows against the recorded output of the parent commit inside
the op.  Any wrong op makes the exit code 1.

The last line on stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, scaled to reference host speed (see HostSpeed).  With ``--trace 1`` the run spends half its time
untraced and half traced, and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import string
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

from layertrace import Tracer
from reference import ReferenceFpe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_FILE = ROOT / "tests" / "data" / "golden_vectors.txt"
MIXLAB_REFERENCE = BENCH_DIR / "data" / "mixlab_n12_q3_r12.csv"

EXPECTED_PRF_ID = "blake2b-128/v1"
# Fresh interpreters started per run to measure set-up time.
SETUP_PROBES = 15
# Time of one calibration kernel call (see HostSpeed) on the reference
# host in its fast phase.  Times at reference speed read as times there.
REFERENCE_KERNEL_NS = 400_000
# Op time between two host-speed samples.
SEGMENT_NS = 50_000_000

_clock = time.perf_counter_ns


class BenchError(Exception):
    """The benchmark cannot measure: missing sources or a failed correctness gate."""


def load_library() -> dict:
    """Import swapornot from this checkout's ``src/``, never from an installed copy."""
    package = SRC / "swapornot"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no swapornot sources at {package}")
    sys.path.insert(0, str(SRC))
    import swapornot
    from swapornot import bounds, cli, fpe, mixing, prf

    if Path(swapornot.__file__).resolve().parent != package:
        raise BenchError(f"imported swapornot from {swapornot.__file__}, not {package}")
    return {"fpe": fpe, "bounds": bounds, "prf": prf, "mixing": mixing, "cli": cli}


def correctness_gate(lib: dict) -> None:
    """Refuse to measure a build whose PRF or golden vectors have changed."""
    prf_id = lib["prf"].PRF_ID
    if prf_id != EXPECTED_PRF_ID:
        raise BenchError(f"PRF_ID is {prf_id!r}, expected {EXPECTED_PRF_ID!r}")
    fpe = lib["fpe"]
    produced = fpe.format_golden_vectors(fpe.generate_golden_vectors()).encode()
    try:
        stored = GOLDEN_FILE.read_bytes()
    except OSError as exc:
        raise BenchError(f"cannot read the golden vectors: {exc}") from exc
    if produced != stored:
        raise BenchError(f"regenerated golden vectors differ from {GOLDEN_FILE}")


class HostSpeed:
    """How fast the host runs now, relative to the reference host's fast phase.

    On the reference host (a 2-vCPU microVM) the CPU changes speed by up to
    about 2x, for seconds to minutes at a time, with steal time at 0: far
    more than any change worth gating.  So every run times a fixed calibration kernel
    between short stretches of work, and scales the work's time by
    REFERENCE_KERNEL_NS / kernel time.  The kernel is the benchmark's own
    reference FPE encrypting one fixed record: keyed BLAKE2b plus Python
    integer and bytes work, like the library, but no library code, so a
    change to the library moves the work's time and not the kernel's.
    """

    def __init__(self) -> None:
        self._kernel = ReferenceFpe(bytes(32), 10, 9, 340)
        self.kernel_ns: list[int] = []
        self._last = self._sample()

    def _sample(self) -> float:
        start = _clock()
        self._kernel.encrypt("000000000", b"")
        elapsed = _clock() - start
        self.kernel_ns.append(elapsed)
        return REFERENCE_KERNEL_NS / elapsed

    def scale(self) -> float:
        """Factor for the work done since the last call: mean of the samples either side."""
        before, self._last = self._last, self._sample()
        return (before + self._last) / 2


def fpe_speed(scaled: list[float], rates: list[float]) -> tuple[float, float]:
    """(median ops per second over the segments, median op ms), at reference speed."""
    return statistics.median(rates), statistics.median(scaled) * 1e-6


class FpeHotKey:
    """One key, 9-digit decimal strings, rounds=340, encrypt and decrypt alternating.

    Each decrypt takes the ciphertext of the encrypt just before it, so every
    record is tokenized and then detokenized.
    """

    name = "fpe_hot_key"
    root_span = "fpe.op"
    setup_code = "from swapornot import PrfKey, fpe; fpe.FormatSpec(10, 9); PrfKey(bytes(32))"
    RADIX, LENGTH, ROUNDS = 10, 9, 340

    def __init__(self, lib: dict, seed: int):
        self.fpe = lib["fpe"]
        self.rng = random.Random(seed)
        self.key_bytes = self.rng.randbytes(32)
        self.key = lib["prf"].PrfKey(self.key_bytes)
        self.spec = self.fpe.FormatSpec(self.RADIX, self.LENGTH)
        self.pending = None  # (plaintext, tweak, ciphertext) awaiting its decrypt
        self.records = []  # (input, tweak, output, expected output or None)

    def use_key_class(self, key_cls) -> None:
        self.key = key_cls(self.key_bytes)

    def next_args(self) -> tuple:
        if self.pending is None:
            text = "".join(self.rng.choices(string.digits, k=self.LENGTH))
            return (self.fpe.fpe_encrypt, text, self.rng.randbytes(8))
        _, tweak, ciphertext = self.pending
        return (self.fpe.fpe_decrypt, ciphertext, tweak)

    def op(self, fn, text, tweak):
        return fn(self.key, self.spec, text, tweak, self.ROUNDS)

    def record(self, args: tuple, out) -> None:
        _, text, tweak = args
        if self.pending is None:
            self.records.append((text, tweak, out, None))
            self.pending = (text, tweak, out) if isinstance(out, str) else None
        else:
            self.records.append((text, tweak, out, self.pending[0]))
            self.pending = None

    speed = staticmethod(fpe_speed)

    def verify(self) -> int:
        reference = ReferenceFpe(self.key_bytes, self.RADIX, self.LENGTH, self.ROUNDS)
        failed = 0
        for text, tweak, out, expected in self.records:
            if expected is None:
                expected = reference.encrypt(text, tweak)
            failed += out != expected
        return failed


class FpeColdKeysAuto:
    """A fresh key per op, 12-char base-36 tokens, planned rounds, encrypt only.

    Each ciphertext is checked against the reference and decrypted back after
    the timed loop.
    """

    name = "fpe_cold_keys_auto"
    root_span = "fpe.op"
    setup_code = "from swapornot import fpe; fpe.FormatSpec(36, 12)"
    RADIX, LENGTH, QUERIES = 36, 12, 10**12
    # The planner's choice for N = 36**12, q = 10**12 and the default CCA
    # target 1e-10; the reference must use the same count.
    PLANNED_ROUNDS = 478

    def __init__(self, lib: dict, seed: int):
        self.fpe = lib["fpe"]
        self.rng = random.Random(seed)
        self.key_cls = lib["prf"].PrfKey
        self.spec = self.fpe.FormatSpec(self.RADIX, self.LENGTH)
        self.alphabet = self.spec.alphabet
        self.records = []  # (key, plaintext, tweak, output)

    def use_key_class(self, key_cls) -> None:
        self.key_cls = key_cls

    def next_args(self) -> tuple:
        key = self.key_cls(self.rng.randbytes(32))
        text = "".join(self.rng.choices(self.alphabet, k=self.LENGTH))
        return (key, text, self.rng.randbytes(256))

    def op(self, key, text, tweak):
        return self.fpe.fpe_encrypt(key, self.spec, text, tweak, None, queries=self.QUERIES)

    def record(self, args: tuple, out) -> None:
        self.records.append((*args, out))

    speed = staticmethod(fpe_speed)

    def verify(self) -> int:
        failed = 0
        for key, text, tweak, out in self.records:
            reference = ReferenceFpe(key.key_bytes, self.RADIX, self.LENGTH, self.PLANNED_ROUNDS)
            if out != reference.encrypt(text, tweak):
                failed += 1
                continue
            try:
                # The reference already pins the planned round count.
                back = self.fpe.fpe_decrypt(key, self.spec, out, tweak, self.PLANNED_ROUNDS)
            except Exception:
                traceback.print_exc()
                back = None
            failed += back != text
        return failed


def _grid_rows(max_n: int, max_q: int, max_r: int) -> list[str]:
    """The recorded sweep output restricted to N <= max_n, q <= max_q, r <= max_r."""
    header, *rows = MIXLAB_REFERENCE.read_text().splitlines()
    keep = [header]
    for row in rows:
        _, n, q, r = row.split(",")[:4]
        if int(n) <= max_n and int(q) <= max_q and int(r) <= max_r:
            keep.append(row)
    return keep


class Sweep(NamedTuple):
    """One sweep: rows that are missing, extra or differ, and its time."""

    wrong_rows: int
    ns: int  # without the host-speed samples taken during the sweep
    scaled_ns: float  # at reference speed


class MixlabSweep:
    """``swapornot mixlab`` over mod-add N = 3..12 and XOR N = 4, 8; q <= 3, r <= 12.

    An op is one whole sweep plus the comparison of its rows with the
    recorded output of the parent commit.  A sweep outlasts the host's speed
    changes, so when ``host`` is set the op samples it between rows.
    """

    name = "mixlab_sweep"
    root_span = "mixlab.sweep"
    setup_code = "import swapornot.cli"
    FULL_GRID = (12, 3, 12)

    def __init__(self, lib: dict, seed: int, grid: tuple[int, int, int] = FULL_GRID):
        self.cli = lib["cli"]
        self.mixing = lib["mixing"]
        if any(g > full for g, full in zip(grid, self.FULL_GRID)):
            raise BenchError(f"grid {grid} exceeds the recorded sweep {self.FULL_GRID}")
        max_n, max_q, max_r = grid
        self.argv = ["mixlab", "--max-n", str(max_n), "--max-q", str(max_q),
                     "--max-r", str(max_r), "--csv"]
        self.expected = _grid_rows(*grid)
        self.host: HostSpeed | None = None
        self.records: list[Sweep | Exception] = []

    def use_key_class(self, key_cls) -> None:
        pass

    def next_args(self) -> tuple:
        return ()

    def op(self) -> Sweep:
        mixing, host = self.mixing, self.host
        grid = mixing.validation_grid
        segments: list[tuple[int, float]] = []  # (ns of rows, host factor)
        samples_before = len(host.kernel_ns) if host else 0

        def sampled(*args, **kwargs):
            rows = grid(*args, **kwargs)
            segment = 0
            while True:
                start = _clock()
                row = next(rows, None)
                segment += _clock() - start
                if row is None:
                    break
                if host is not None and segment >= SEGMENT_NS:
                    segments.append((segment, host.scale()))
                    segment = 0
                yield row
            if host is not None:
                segments.append((segment, host.scale()))

        start = _clock()
        mixing.validation_grid = sampled
        try:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = self.cli.cli_main(self.argv)
        finally:
            mixing.validation_grid = grid
        rows = out.getvalue().splitlines()
        wrong = sum(a != b for a, b in zip(rows, self.expected))
        wrong += abs(len(rows) - len(self.expected))
        if status != 0:
            wrong = max(wrong, 1)
        if host is None:
            elapsed = _clock() - start
            return Sweep(wrong, elapsed, float(elapsed))
        elapsed = _clock() - start - sum(host.kernel_ns[samples_before:])
        # Argument parsing, printing and the check count at the last factor.
        last = segments[-1][1] if segments else host.scale()
        rest = elapsed - sum(ns for ns, _ in segments)
        return Sweep(wrong, elapsed, sum(ns * f for ns, f in segments) + rest * last)

    def record(self, args: tuple, out) -> None:
        self.records.append(out)

    def verify(self) -> int:
        return sum(not isinstance(out, Sweep) or out.wrong_rows != 0 for out in self.records)

    def speed(self, scaled: list[float], rates: list[float]) -> tuple[float, float]:
        """(sweeps per second, sweep ms) of the median sweep, at reference speed."""
        sweeps = [s.scaled_ns for s in self.records if isinstance(s, Sweep)]
        if not sweeps:
            raise BenchError("no sweep completed")
        median = statistics.median(sweeps)
        return 1e9 / median, median * 1e-6


WORKLOADS = {cls.name: cls for cls in (FpeHotKey, FpeColdKeysAuto, MixlabSweep)}


def measure(workload, seconds: float, op, host: HostSpeed, between=None, calls: int = 0):
    """Closed loop: call ``op`` until the ops' own time reaches ``seconds``.

    Returns each op's latency in ns, the same at reference speed, and the
    ops per second (at reference speed) of each segment: the host's speed is
    sampled after every SEGMENT_NS of op time.  Input
    generation, the recording of outputs, the speed samples and the
    ``calls`` calls of ``between(host)``, spread evenly from the start of
    the loop to its end, all fall outside the timed region.
    """
    latencies: list[int] = []
    scaled: list[float] = []
    rates: list[float] = []
    busy, limit = 0, seconds * 1e9
    due = [limit * i / max(calls - 1, 1) for i in range(calls)]
    segment_start = segment_busy = 0
    reported = False

    def close_segment():
        nonlocal segment_start, segment_busy
        factor = host.scale()
        segment = [ns * factor for ns in latencies[segment_start:]]
        if segment:
            scaled.extend(segment)
            rates.append(len(segment) / (sum(segment) * 1e-9))
        segment_start, segment_busy = len(latencies), 0

    while busy < limit or not latencies:
        if due and busy >= due[0]:
            close_segment()
            while due and busy >= due[0]:
                due.pop(0)
                between(host)
        args = workload.next_args()
        start = _clock()
        try:
            out = op(*args)
        except Exception as exc:
            out = exc
        elapsed = _clock() - start
        if isinstance(out, Exception) and not reported:
            traceback.print_exception(out)
            reported = True
        workload.record(args, out)
        latencies.append(elapsed)
        busy += elapsed
        segment_busy += elapsed
        if segment_busy >= SEGMENT_NS:
            close_segment()
    close_segment()
    for _ in due:
        between(host)
    return latencies, scaled, rates


def probe_setup(workload_cls) -> float:
    """Wall time from spawning an interpreter to it being ready for the first op.

    The probe imports swapornot from this checkout and does the workload's
    one-time library set-up; the benchmark's input generation is not included.
    """
    program = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import swapornot; "
        f"{workload_cls.setup_code}; print('ready', flush=True)"
    )
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", program], cwd=ROOT, stdout=subprocess.PIPE, text=True
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if line.strip() != "ready" or child.returncode != 0:
        raise BenchError(f"set-up probe failed with exit code {child.returncode}")
    return elapsed


def run_workload(lib: dict, name: str, seed: int, seconds: float, trace: bool, **options):
    """Measure one workload; return (result object, human-readable lines)."""
    workload_cls = WORKLOADS[name]
    workload = workload_cls(lib, seed, **options)
    host = HostSpeed()
    lines = [f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}"]
    if trace:
        _, untraced, _ = measure(workload, seconds / 2, workload.op, host)
        tracer = Tracer()
        workload.use_key_class(tracer.key_class(lib["prf"].PrfKey))
        with tracer.installed(lib):
            raw, traced, _ = measure(
                workload, seconds / 2, tracer.span(workload.root_span, workload.op), host
            )
        overhead = statistics.median(traced) / statistics.median(untraced) - 1
        metrics = tracer.metrics(len(raw), overhead, sum(traced) / sum(raw))
        lines.append(f"traced ops {len(traced)}, untraced ops {len(untraced)}")
    else:
        workload.host = host
        setups: list[tuple[float, float]] = []  # (s, s at reference speed)

        def probe(host):
            # A probe is short next to one speed sample's noise: use the
            # median of several taken on either side.
            factors = [host.scale() for _ in range(3)]
            elapsed = probe_setup(workload_cls)
            factors += [host.scale() for _ in range(3)]
            setups.append((elapsed, elapsed * statistics.median(factors)))

        raw, scaled, rates = measure(workload, seconds, workload.op, host, probe, SETUP_PROBES)
        ops_per_s, op_ms = workload.speed(scaled, rates)
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "op_ms": (op_ms, "ms"),
            "setup_s": (statistics.median(s for _, s in setups), "s"),
        }
        lines += _summary(workload, raw, [t for t, _ in setups], host)
    attempted = len(workload.records)
    failed = workload.verify()
    lines.append(f"failed_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def _summary(workload, raw: list[int], setups: list[float], host: HostSpeed) -> list[str]:
    """The wall-time figures, unscaled, whatever the host's speed."""
    n = len(raw)
    if isinstance(workload, MixlabSweep):
        sweeps = [s.ns for s in workload.records if isinstance(s, Sweep)]
        lines = [f"mixlab_sweep_s {statistics.median(sweeps) * 1e-9:.4f} s "
                 f"(median of {len(sweeps)} sweeps)"]
    else:
        lines = [
            f"fpe_ops_per_s {n / (sum(raw) * 1e-9):.1f} 1/s",
            f"fpe_p50_us {statistics.median(raw) * 1e-3:.1f} us (n={n})",
        ]
        # A percentile is reported only with at least ten samples beyond it.
        if n >= 1000:
            p99 = statistics.quantiles(raw, n=100)[98]
            lines.append(f"fpe_p99_us {p99 * 1e-3:.1f} us (n={n}, not gated)")
    lines.append(f"setup_s {statistics.median(setups):.4f} s (median of {len(setups)} probes)")
    kernel = statistics.quantiles(host.kernel_ns, n=4) if len(host.kernel_ns) > 1 else [0] * 3
    lines.append(
        f"host kernel_us quartiles {kernel[0] / 1e3:.0f} {kernel[1] / 1e3:.0f} "
        f"{kernel[2] / 1e3:.0f} (reference {REFERENCE_KERNEL_NS / 1e3:.0f}, "
        f"{len(host.kernel_ns)} samples)"
    )
    return lines


def host_state() -> dict:
    """Load average and cumulative CPU steal ticks, read from /proc."""
    state = {"loadavg": None, "steal_ticks": None}
    with contextlib.suppress(OSError, IndexError, ValueError):
        state["loadavg"] = Path("/proc/loadavg").read_text().split()[:3]
    with contextlib.suppress(OSError, IndexError, ValueError):
        cpu = Path("/proc/stat").read_text().splitlines()[0].split()
        state["steal_ticks"] = int(cpu[8])
    return state


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(lib: dict, seed: int, before: dict, after: dict) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "cpu": _cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        "mpmath": _version("mpmath"),
        "numpy": _version("numpy"),
        "prf_id": lib["prf"].PRF_ID,
        "commit": _git_commit(),
        "seed": seed,
        "host_before": before,
        "host_after": after,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    before = host_state()
    try:
        lib = load_library()
        correctness_gate(lib)
        result, lines = run_workload(lib, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    env = environment(lib, args.seed, before, host_state())
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
