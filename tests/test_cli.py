import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from swapornot import GroupLaw, mixing
from swapornot.cli import cli_main

KEY = "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
VECTOR_FILE = Path(__file__).parent / "data" / "golden_vectors.txt"
MIXLAB_RECORD = Path(__file__).parents[1] / "bench" / "data" / "mixlab_n12_q3_r12.csv"


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_value(capsys):
    code, out, _ = run(
        capsys, "bounds", "--N", "1073741824", "--rounds", "340", "--q", "100000000",
        "--model", "cca",
    )
    assert code == 0
    assert float(out) < 1e-10


def test_bounds_six_significant_digits(capsys):
    _, out, _ = run(capsys, "bounds", "--N", "1073741824", "--rounds", "340",
                    "--q", "100000000", "--model", "cca")
    assert out.strip() == "2.23952e-11"


def test_bounds_deterministic_output(capsys):
    args = ("bounds", "--N", "1024", "--rounds", "60", "--q", "512", "--model", "ncpa")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_bounds_csv(capsys):
    code, out, _ = run(
        capsys, "bounds", "--N", "1024", "--rounds", "60,80", "--q", "256,512",
        "--model", "cca", "--csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,rounds,q,model,advantage"
    assert len(lines) == 5
    assert lines[1].startswith("1024,60,256,cca,")


def test_bounds_list_requires_csv(capsys):
    code, _, err = run(capsys, "bounds", "--N", "1024", "--rounds", "60,80", "--q", "1")
    assert code == 1
    assert "--csv" in err


def test_minrounds(capsys):
    code, out, _ = run(
        capsys, "minrounds", "--N", "9007199254740992", "--q", "1000000000000000",
        "--target-adv", "1e-10", "--model", "cca",
    )
    assert code == 0
    rounds = int(out)
    assert rounds % 2 == 0 and rounds <= 500


def test_minrounds_meets_a_target_equal_to_the_bound(capsys):
    # ncpa_bound(4, 6, 2) is exactly 0.6328125, so 6 rounds meet that target.
    code, out, _ = run(
        capsys, "minrounds", "--N", "4", "--q", "2", "--target-adv", "0.6328125",
        "--model", "ncpa",
    )
    assert (code, out) == (0, "6\n")


def test_minrounds_cap_exceeded(capsys):
    code, _, err = run(
        capsys, "minrounds", "--N", "1000000000", "--q", "999999999",
        "--target-adv", "1e-10", "--model", "cca",
    )
    assert code == 2
    assert "65536" in err


def test_encrypt_decrypt_roundtrip(capsys):
    base = ("--key", KEY, "--radix", "10", "--length", "9", "--tweak", "beef",
            "--rounds", "100")
    code, out, _ = run(capsys, "encrypt", *base, "123456789")
    assert code == 0
    ciphertext = out.strip()
    assert len(ciphertext) == 9 and ciphertext.isdigit()
    code, out, _ = run(capsys, "decrypt", *base, ciphertext)
    assert code == 0
    assert out.strip() == "123456789"


def test_encrypt_auto_rounds_with_budget(capsys):
    code, out, err = run(
        capsys, "encrypt", "--key", KEY, "--radix", "10", "--length", "9",
        "--queries", "100000000", "123456789",
    )
    assert code == 0
    assert "auto rounds:" in err
    rounds = int(err.split("auto rounds:")[1].split()[0])
    assert rounds % 2 == 0 and rounds <= 340
    ciphertext = out.strip()
    code, out, _ = run(
        capsys, "decrypt", "--key", KEY, "--radix", "10", "--length", "9",
        "--queries", "100000000", ciphertext,
    )
    assert code == 0 and out.strip() == "123456789"


def test_encrypt_auto_rounds_default_budget_fails(capsys):
    # Auto rounds without a query budget are refused as a usage error, before
    # the key is parsed or the planner runs: there is no q = N-1 default.
    for command in ("encrypt", "decrypt"):
        for key in (KEY, "not-hex"):
            code, out, err = run(
                capsys, command, "--key", key, "--radix", "10", "--length", "9", "123456789",
            )
            assert code == 1 and out == ""
            assert "--queries" in err and "--rounds" in err and "1/(8N)" in err


def test_bad_hex_key_and_tweak_share_one_message(capsys):
    base = ("--radix", "10", "--length", "3", "--rounds", "10", "123")
    cases = [(("--key", "zz"), "key", 0), (("--key", KEY, "--tweak", "0g"), "tweak", 1)]
    for flags, what, at in cases:
        code, out, err = run(capsys, "encrypt", *flags, *base)
        assert code == 2 and out == ""
        assert err == (
            f"swapornot encrypt: {what} is not valid hex: "
            f"non-hexadecimal number found in fromhex() arg at position {at}\n"
        )


def test_encrypt_xor_flag(capsys):
    base = ("--key", KEY, "--radix", "16", "--length", "4", "--rounds", "10", "--xor")
    code, out, _ = run(capsys, "encrypt", *base, "00ff")
    assert code == 0
    code, out2, _ = run(capsys, "decrypt", *base, out.strip())
    assert code == 0 and out2.strip() == "00ff"


def test_mixlab_csv(capsys):
    code, out, _ = run(capsys, "mixlab", "--max-n", "5", "--max-q", "2", "--max-r", "4", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "law,N,q,r,tvd,bound,pass"
    # 3 ModAdd sizes + 1 XOR size, q in 1..2, r in 1..4
    assert len(lines) == 1 + 4 * 2 * 4
    assert all(line.endswith(",pass") for line in lines[1:])


def test_mixlab_plain_output(capsys):
    code, out, _ = run(capsys, "mixlab", "--max-n", "4", "--max-q", "1", "--max-r", "2")
    assert code == 0
    assert "0 violations" in out


@pytest.mark.parametrize(
    "grid,row",
    [
        (("4", "3", "2"), "add,4,3,2,0.335938,"),  # 43/128
        (("5", "1", "12"), "add,5,1,12,0.000195312,"),  # 1/5120
        (("10", "1", "8"), "add,10,1,8,0.00351562,"),  # 9/2560
    ],
)
def test_mixlab_rounds_exact_ties_half_even(capsys, grid, row):
    max_n, max_q, max_r = grid
    code, out, _ = run(capsys, "mixlab", "--max-n", max_n, "--max-q", max_q, "--max-r", max_r,
                       "--csv")
    assert code == 0
    assert sum(line.startswith(row) for line in out.splitlines()) == 1


def test_mixlab_diagnostics_go_to_stderr(capsys):
    for extra in ((), ("--csv",)):
        code, out, err = run(capsys, "mixlab", "--max-n", "4", "--max-q", "2", "--max-r", "3",
                             *extra)
        assert code == 0
        assert "mixlab:" not in out
        (line,) = err.splitlines()
        assert line.startswith("mixlab: 18 rows, 0 violations, ") and line.endswith(" s")
        # The row with the largest tvd/bound: tvd 0.479167 under a bound of 1.
        assert " violations, tightest add N=4 q=2 r=1 tvd/bound=0.479, " in line
    # No rows, no tightest row.
    code, _, err = run(capsys, "mixlab", "--max-n", "2")
    assert code == 0
    assert err.startswith("mixlab: 0 rows, 0 violations, ") and "tightest" not in err


def test_mixlab_reports_a_violation_once_per_row(capsys, monkeypatch):
    # A row whose exact tvd exceeds its bound fails, sets the exit code to 1,
    # and its exact comparison is made once per row.
    rows = [
        mixing.ValidationRow(GroupLaw.MOD_ADD, 4, 1, 1, Fraction(1, 4), 0.5),
        mixing.ValidationRow(GroupLaw.XOR, 4, 2, 3, Fraction(1, 2), 0.25),
    ]
    monkeypatch.setattr(mixing, "validation_grid", lambda *args: iter(rows))
    calls = []
    ok = mixing.ValidationRow.ok
    monkeypatch.setattr(
        mixing.ValidationRow, "ok", property(lambda row: calls.append(row) or ok.fget(row))
    )
    code, out, err = run(capsys, "mixlab", "--csv")
    assert code == 1
    assert out.splitlines() == [
        "law,N,q,r,tvd,bound,pass", "add,4,1,1,0.25,0.5,pass", "xor,4,2,3,0.5,0.25,fail"
    ]
    assert err.startswith("mixlab: 2 rows, 1 violations, tightest xor N=4 q=2 r=3 tvd/bound=2, ")
    assert calls == rows
    code, out, _ = run(capsys, "mixlab")
    assert code == 1
    assert out.splitlines()[1:] == [
        "add    4  1   1         0.25          0.5  pass",
        "xor    4  2   3          0.5         0.25  fail",
        "2 rows, 1 violations",
    ]


def test_mixlab_sweep_matches_the_recorded_rows(capsys):
    # The benchmark's sweep, 432 rows, byte for byte as recorded.
    code, out, _ = run(capsys, "mixlab", "--max-n", "12", "--max-q", "3", "--max-r", "12",
                       "--csv")
    assert code == 0
    assert out.encode() == MIXLAB_RECORD.read_bytes()


def test_mixlab_rounds_capped_where_the_bound_is_exact(capsys):
    # Past 64 rounds the sweep is refused.  Up to 64 the float bound stays far
    # above underflow, so no positive exact TVD meets a bound of 0.0.
    code, out, err = run(capsys, "mixlab", "--max-n", "3", "--max-q", "1", "--max-r", "65")
    assert code == 2 and out == ""
    assert "rounds must be in [0, 64], got 65" in err
    code, out, err = run(capsys, "mixlab", "--max-n", "3", "--max-q", "1", "--max-r", "64")
    assert code == 0
    assert out.splitlines()[-1] == "64 rows, 0 violations"
    assert err.startswith("mixlab: 64 rows, 0 violations, tightest ")


def test_mixlab_refuses_an_oversized_grid_before_its_first_row(capsys, monkeypatch):
    def no_step(dist):
        raise AssertionError("a chain was stepped before the grid was checked")

    monkeypatch.setattr(mixing, "step", no_step)
    code, out, err = run(capsys, "mixlab", "--max-n", "9", "--max-q", "7")
    assert (code, out) == (2, "")
    assert err.startswith("swapornot mixlab: one exact round of N=9, q=7 costs ")


def test_vectors_matches_frozen_file(capsys):
    code, out, _ = run(capsys, "vectors")
    assert code == 0
    assert out == VECTOR_FILE.read_text()


def test_shuffle_demo(capsys):
    code, out, _ = run(capsys, "shuffle", "--n", "8", "--rounds", "3", "--seed", "42")
    assert code == 0
    assert sorted(int(v) for v in out.split()) == list(range(8))
    _, again, _ = run(capsys, "shuffle", "--n", "8", "--rounds", "3", "--seed", "42")
    assert again == out
    code, out, _ = run(capsys, "shuffle", "--n", "8", "--rounds", "3", "--xor")
    assert code == 0
    code, _, _ = run(capsys, "shuffle", "--n", "6", "--rounds", "3", "--xor")
    assert code == 2  # XOR needs a power-of-two deck


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "bogus")[0] == 1
    assert run(capsys, "bounds", "--N", "10")[0] == 1          # missing flags
    assert run(capsys, "bounds", "--N", "x", "--rounds", "2", "--q", "1")[0] == 1
    assert run(capsys, "encrypt", "--key", KEY, "--radix", "10", "--length", "9",
               "--rounds", "ten", "1")[0] == 1


def test_malformed_numbers_are_argparse_usage_errors(capsys):
    crypt = ("encrypt", "--key", KEY, "--radix", "10", "--length", "9")
    cases = [
        (crypt + ("--rounds", "ten", "1"), "argument --rounds: invalid int_or_auto value: 'ten'"),
        (("bounds", "--N", "100", "--rounds", "2,x", "--q", "1", "--csv"),
         "argument --rounds: invalid int_list value: '2,x'"),
        (("bounds", "--N", "100", "--rounds", "8", "--q", "1,"),
         "argument --q: invalid int_list value: '1,'"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and message in err
    # "auto" converts to planned rounds, which still need a query budget.
    code, _, err = run(capsys, *crypt, "--rounds", "auto", "123456789")
    assert code == 1 and "--rounds auto needs --queries" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("encrypt", "--key", KEY, "--radix", "10", "--length", "9", "--rounds", "ten", "1"),
         "swapornot encrypt: error: argument --rounds: invalid int_or_auto value: 'ten'"),
        (("bogus",), "swapornot: error: argument command: invalid choice: 'bogus'"),
        (("encrypt", "--key", KEY, "--radix", "10", "--length", "9", "123456789"),
         "swapornot encrypt: error: --rounds auto needs --queries, "),
        (("bounds", "--N", "100", "--rounds", "2,4", "--q", "1"),
         "swapornot bounds: error: comma lists for --rounds/--q require --csv"),
    ],
    ids=["argparse-type", "argparse-choice", "crypt-handler", "bounds-handler"],
)
def test_usage_errors_take_argparse_error_path(capsys, argv, message):
    # Whether argparse or a subcommand finds it, a usage error prints the
    # usage line and argparse's "prog: error: message" line, and nothing on stdout.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: swapornot")
    assert message in err


def test_parameter_errors_exit_2(capsys):
    assert run(capsys, "bounds", "--N", "100", "--rounds", "7", "--q", "5")[0] == 2
    assert run(capsys, "bounds", "--N", "100", "--rounds", "8", "--q", "200")[0] == 2
    assert run(capsys, "encrypt", "--key", "zz", "--radix", "10", "--length", "9",
               "--rounds", "4", "123456789")[0] == 2
    assert run(capsys, "encrypt", "--key", KEY, "--radix", "10", "--length", "9",
               "--rounds", "4", "--tweak", "xyz", "123456789")[0] == 2
    assert run(capsys, "encrypt", "--key", KEY, "--radix", "10", "--length", "9",
               "--rounds", "4", "12345678")[0] == 2


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


def test_module_invocation():
    result = subprocess.run(
        [sys.executable, "-m", "swapornot", "bounds", "--N", "1073741824",
         "--rounds", "340", "--q", "100000000", "--model", "cca"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert float(result.stdout) < 1e-10


def test_module_exit_codes():
    # ``python -m swapornot`` exits with cli_main's code and writes its stdout unchanged.
    def module(*argv):
        return subprocess.run([sys.executable, "-m", "swapornot", *argv], capture_output=True)

    vectors = module("vectors")
    assert vectors.returncode == 0 and vectors.stdout == VECTOR_FILE.read_bytes()
    assert module("mixlab", "--max-r", "65").returncode == 2
    no_budget = module("encrypt", "--key", KEY, "--radix", "10", "--length", "9", "123456789")
    assert no_budget.returncode == 1 and b"--queries" in no_budget.stderr
