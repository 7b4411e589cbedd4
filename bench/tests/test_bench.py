"""Tests of the benchmark itself.

Tiny runs of every workload, the counting of wrong outputs, the correctness
gate, and the nesting of the traced run's spans.  Run from the repository
root:

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import layertrace  # noqa: E402
import run  # noqa: E402
from layertrace import Tracer  # noqa: E402
from reference import ReferenceFpe  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
LIB = run.load_library()
TINY_GRID = (5, 2, 3)
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny_run(name, trace, seconds=0.2, seed=3):
    options = {"grid": TINY_GRID} if name == "mixlab_sweep" else {}
    result, _ = run.run_workload(LIB, name, seed, seconds, trace, **options)
    return result


def test_workloads_match_the_contract():
    assert sorted(WORKLOAD_NAMES) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric(name, trace):
    result = tiny_run(name, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == {
        m["name"]: m["unit"] for m in wanted
    }
    json.dumps(result)


def test_traced_counts_on_the_hot_key():
    metrics = tiny_run("fpe_hot_key", True)["metrics"]
    assert metrics["prf.blocks_per_op"]["value"] == 2 * 340 + 1
    assert metrics["prf.subkey_draws_per_op"]["value"] == 340
    assert metrics["cipher.rounds_per_op"]["value"] == 340
    assert metrics["bounds.min_rounds_calls_per_op"]["value"] == 0
    assert metrics["mixing.step_calls"]["value"] == 0


def test_traced_counts_on_cold_keys():
    metrics = tiny_run("fpe_cold_keys_auto", True)["metrics"]
    assert metrics["bounds.min_rounds_calls_per_op"]["value"] == 1.0
    assert 0 < metrics["prf.subkey_accept_ratio"]["value"] < 1
    assert metrics["cipher.rounds_per_op"]["value"] == run.FpeColdKeysAuto.PLANNED_ROUNDS
    assert metrics["prf.tweak_bytes_per_op"]["value"] == 256
    assert metrics["cipher.decipher_us"]["value"] == 0


def test_traced_counts_on_the_sweep():
    metrics = tiny_run("mixlab_sweep", True, seconds=0.05)["metrics"]
    rows = len(run._grid_rows(*TINY_GRID)) - 1
    assert metrics["mixing.step_calls"]["value"] == rows
    assert metrics["bounds.ncpa_bound_calls"]["value"] == rows
    assert metrics["prf.blocks_per_op"]["value"] == 0


def _corrupt_first_call(monkeypatch, module, attr, corrupt):
    original = getattr(module, attr)
    calls = []

    def corrupted(*args, **kwargs):
        calls.append(None)
        out = original(*args, **kwargs)
        return corrupt(out) if len(calls) == 1 else out

    monkeypatch.setattr(module, attr, corrupted)


@pytest.mark.parametrize("name", ["fpe_hot_key", "fpe_cold_keys_auto"])
def test_corrupted_ciphertext_is_counted(monkeypatch, name):
    _corrupt_first_call(monkeypatch, LIB["fpe"], "encipher", lambda y: y ^ 1)
    result = tiny_run(name, False)
    assert result["failed"] >= 1 and not result["correct"]


def test_tampered_sweep_row_is_counted(monkeypatch):
    _corrupt_first_call(monkeypatch, LIB["mixing"], "tvd_to_stationary", lambda t: t + 1e-3)
    result = tiny_run("mixlab_sweep", False, seconds=0.05)
    assert result["failed"] == 1 and not result["correct"]


def test_wrong_op_makes_the_exit_code_1(monkeypatch, capsys):
    # The golden gate would catch the corruption first; this is about the ops.
    monkeypatch.setattr(run, "correctness_gate", lambda lib: None)
    _corrupt_first_call(monkeypatch, LIB["fpe"], "encipher", lambda y: y ^ 1)
    code = run.main(["--workload", "fpe_hot_key", "--seed", "1", "--seconds", "0.2"])
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1 and last["correct"] is False and last["failed"] >= 1


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_children_fit_in_their_op(name):
    options = {"grid": TINY_GRID} if name == "mixlab_sweep" else {}
    workload = run.WORKLOADS[name](LIB, 5, **options)
    tracer = Tracer()
    workload.use_key_class(tracer.key_class(LIB["prf"].PrfKey))
    originals = {attr: getattr(LIB[mod], attr) for mod, attr, _ in layertrace.BOUNDARIES}
    with tracer.installed(LIB):
        run.measure(workload, 0.05, tracer.span(workload.root_span, workload.op), FixedHost())
    assert tracer.roots
    assert all(0 <= children <= total for total, children in tracer.roots)
    assert all(0 <= tracer.self_ns[n] <= tracer.total_ns[n] for n in tracer.total_ns)
    for mod, attr, _ in layertrace.BOUNDARIES:
        assert getattr(LIB[mod], attr) is originals[attr]


def test_gate_rejects_changed_golden_vectors(monkeypatch, capsys):
    monkeypatch.setattr(LIB["fpe"], "format_golden_vectors", lambda vectors: "changed\n")
    with pytest.raises(run.BenchError):
        run.correctness_gate(LIB)
    assert run.main(["--workload", "fpe_hot_key", "--seed", "1", "--seconds", "0.1"]) == 2
    assert capsys.readouterr().out == ""


def test_gate_rejects_another_prf(monkeypatch):
    monkeypatch.setattr(LIB["prf"], "PRF_ID", "blake2b-128/v2")
    with pytest.raises(run.BenchError):
        run.correctness_gate(LIB)


def test_reference_reproduces_the_golden_vectors():
    lines = run.GOLDEN_FILE.read_text().splitlines()[2:]
    assert lines
    for line in lines:
        key, tweak, radix, length, rounds, plaintext, ciphertext = line.split(",")
        reference = ReferenceFpe(bytes.fromhex(key), int(radix), int(length), int(rounds))
        assert reference.encrypt(plaintext, bytes.fromhex(tweak)) == ciphertext


class FixedHost:
    """A host whose speed samples always say it runs at half reference speed."""

    kernel_ns: list = []

    def scale(self):
        return 2.0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_times_are_scaled_by_the_host_factor(name):
    options = {"grid": TINY_GRID} if name == "mixlab_sweep" else {}
    workload = run.WORKLOADS[name](LIB, 5, **options)
    workload.host = FixedHost()
    raw, scaled, rates = run.measure(workload, 0.1, workload.op, FixedHost())
    assert scaled == [2.0 * ns for ns in raw]
    assert rates and sum(rates) / len(rates) <= 1e9 / (2.0 * min(raw))
    sweeps = [s for s in workload.records if isinstance(s, run.Sweep)]
    assert all(s.scaled_ns == pytest.approx(2.0 * s.ns) for s in sweeps)


def test_host_speed_is_near_1_on_the_reference_host():
    host = run.HostSpeed()
    factors = [host.scale() for _ in range(5)]
    assert all(0.2 < f < 5 for f in factors)


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fpe_hot_key",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
