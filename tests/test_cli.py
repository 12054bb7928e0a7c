"""Command-line interface: exit codes, output shapes, reproducibility."""

import hashlib
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from permzk.cli import (
    EXIT_ACCEPT,
    EXIT_ERROR,
    EXIT_REJECT,
    genlemma_bound,
    main,
)
from permzk.framework import STANDARD_VERIFIERS
from permzk.nonconjugacy import STANDARD_RESPONDERS

from helpers import DEGREE_300_TEXT

TINY = "fixtures/tiny_cyclic.txt"
Q2_GROUPS = "fixtures/q2_groups.txt"
Q2_ELEMENTS = "fixtures/q2_elements.txt"
EC_YES = "fixtures/ec_yes_m3.txt"
NO_M4 = "fixtures/no_m4.txt"
NO_M6 = "fixtures/no_m6.txt"


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_yes(capsys):
    code, out, err = run_main(capsys, "decide", "--instance", TINY)
    assert code == EXIT_ACCEPT
    lines = out.splitlines()
    assert lines[0] == "answer=yes"
    assert lines[1].startswith("witness=")
    assert err == ""


def test_decide_no(capsys):
    code, out, _ = run_main(capsys, "decide", "--instance", NO_M4)
    assert code == EXIT_REJECT
    assert out == "answer=no\n"


def test_decide_element_instance(capsys):
    code, out, _ = run_main(capsys, "decide", "--instance", EC_YES)
    assert code == EXIT_ACCEPT
    assert "witness=1 3 2" in out


def test_prove_single_session_transcript(capsys):
    code, out, _ = run_main(capsys, "prove", "--instance", TINY, "--seed", "5")
    assert code == EXIT_ACCEPT
    lines = out.splitlines()
    assert lines[-1] == "ACCEPT"
    assert lines[0].startswith("s1.r1 P ")
    assert lines[1].startswith("s1.r2 V ")
    assert lines[2].startswith("s1.r3 P ")


def test_prove_trials_mode(capsys):
    code, out, _ = run_main(
        capsys, "prove", "--instance", TINY, "--trials", "20", "--seed", "1"
    )
    assert code == EXIT_ACCEPT
    lines = out.splitlines()
    assert lines[0] == "trials=20"
    assert lines[1] == "accepted=20"
    assert lines[2] == "rate=1.000000"


def test_prove_guess_prover_can_reject(capsys):
    # pinned seed on a no-instance where the guessing prover loses
    for seed in range(20):
        code, out, _ = run_main(
            capsys, "prove", "--instance", NO_M4, "--prover", "guess", "--seed", str(seed)
        )
        if code == EXIT_REJECT:
            assert out.splitlines()[-1] == "REJECT"
            return
    raise AssertionError("guessing prover never lost in 20 seeds")


def test_prove_nonconj_defaults_two_parallel_sessions(capsys):
    code, out, _ = run_main(
        capsys, "prove", "--instance", NO_M4, "--protocol", "non-conj", "--seed", "3"
    )
    assert code == EXIT_ACCEPT
    lines = out.splitlines()
    # round-major interleaving of two sessions
    assert [ln.split()[0] for ln in lines[:-1]] == ["s1.r1", "s2.r1", "s1.r2", "s2.r2"]


def test_prove_nonconj_honest_is_brute(capsys):
    code_a, out_a, _ = run_main(
        capsys, "prove", "--instance", NO_M4, "--protocol", "non-conj",
        "--prover", "honest", "--seed", "9",
    )
    code_b, out_b, _ = run_main(
        capsys, "prove", "--instance", NO_M4, "--protocol", "non-conj",
        "--prover", "brute", "--seed", "9",
    )
    assert (code_a, out_a) == (code_b, out_b)


def test_prove_element_protocol(capsys):
    code, out, _ = run_main(
        capsys, "prove", "--instance", EC_YES, "--rounds", "3", "--seed", "2"
    )
    assert code == EXIT_ACCEPT
    assert out.count("s1.r") == 3


def test_prove_protocol_mismatch(capsys):
    code, _, err = run_main(
        capsys, "prove", "--instance", TINY, "--protocol", "elem-conj"
    )
    assert code == EXIT_ERROR
    assert "error:" in err and "does not fit" in err


def test_prove_unknown_prover(capsys):
    code, _, err = run_main(
        capsys, "prove", "--instance", TINY, "--prover", "majority"
    )
    assert code == EXIT_ERROR
    assert "unknown prover" in err


@pytest.mark.parametrize("prover", ["brute"])
def test_prove_nonconj_refuses_u_over_the_cap(capsys, prover):
    # |<U>| = 720 on no_m6: the unbounded prover must refuse, not answer
    code, out, err = run_main(
        capsys, "prove", "--instance", NO_M6, "--protocol", "non-conj", "--cap", "10", "--prover", prover
    )
    assert (code, out) == (EXIT_ERROR, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed", range(8))
def test_prove_nonconj_refuses_u_over_the_cap_whatever_the_batch(capsys, k, seed):
    # short batches often match neither side's order; the refusal used to
    # come only when the batch's order matched one
    code, out, err = run_main(
        capsys, "prove", "--instance", NO_M6, "--protocol", "non-conj", "--cap", "10",
        "--rounds", "1", "--k", str(k), "--seed", str(seed),
    )
    assert (code, out, err) == (EXIT_ERROR, "", "error: group order 720 exceeds cap 10\n")


def test_prove_nonconj_refuses_majority_prover(capsys):
    code, out, err = run_main(
        capsys, "prove", "--instance", NO_M4, "--protocol", "non-conj", "--prover", "majority"
    )
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("error: ") and "unknown non-conjugacy prover" in err


@pytest.mark.parametrize("verifier", sorted(set(STANDARD_VERIFIERS) - {"honest"}))
def test_prove_nonconj_refuses_a_cheating_verifier(capsys, verifier):
    # the protocol is sound against the honest verifier only; a cheating
    # one used to be ignored, printing the honest run's ACCEPT
    code, out, err = run_main(
        capsys, "prove", "--instance", NO_M4, "--protocol", "non-conj", "--verifier", verifier
    )
    assert (code, out) == (EXIT_ERROR, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and verifier in err


def test_out_flag_mirrors_stdout(tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    code, out, _ = run_main(
        capsys, "prove", "--instance", TINY, "--seed", "5", "--out", str(out_file)
    )
    assert code == EXIT_ACCEPT
    assert out_file.read_text(encoding="ascii") == out


def test_simulate_exact_group(capsys):
    code, out, _ = run_main(
        capsys,
        "simulate", "--instance", Q2_GROUPS, "--exact", "--tape-seed", "4",
    )
    assert code == EXIT_ACCEPT
    lines = out.splitlines()
    assert lines[0] == "mode=exact"
    assert "laws_equal=True" in lines
    assert "uniform_on_consistent=True" in lines
    assert "tv_distance_upper=0" in lines
    assert lines[-1] == "bijection=OK"


def test_simulate_element_always_exact(capsys):
    code, out, _ = run_main(
        capsys, "simulate", "--instance", EC_YES, "--tape-seed", "0"
    )
    assert code == EXIT_ACCEPT
    assert out.splitlines()[0] == "mode=exact"
    assert "bijection=OK" in out


def test_simulate_stat_group(capsys):
    code, out, _ = run_main(
        capsys,
        "simulate", "--instance", TINY, "--k", "3", "--samples", "300",
        "--seed", "6", "--tape-seed", "1",
    )
    assert code == EXIT_ACCEPT
    lines = dict(ln.split("=", 1) for ln in out.splitlines())
    assert lines["mode"] == "stat"
    assert lines["samples"] == "300"
    assert float(lines["chi2_p"]) > 1e-3
    assert "bijection" not in lines


def test_simulate_refuses_no_instance(capsys):
    code, _, err = run_main(
        capsys, "simulate", "--instance", Q2_ELEMENTS, "--tape-seed", "0"
    )
    assert code == EXIT_ERROR
    assert "yes-instances only" in err


def test_stats_genlemma(capsys):
    code, out, _ = run_main(
        capsys,
        "stats-genlemma", "--group", "fixtures/group_c3.txt", "--k", "12",
        "--trials", "300", "--seed", "2",
    )
    assert code == EXIT_ACCEPT
    lines = dict(ln.split("=", 1) for ln in out.splitlines())
    assert lines["group_order"] == "3"
    assert lines["bound"] == "0.5"
    assert lines["verdict"] == "PASS"
    assert float(lines["frequency"]) > 0.5


def test_stats_genlemma_no_bound_below_4m(capsys):
    code, out, _ = run_main(
        capsys,
        "stats-genlemma", "--group", "fixtures/group_c3.txt", "--k", "2",
        "--trials", "50", "--seed", "2",
    )
    assert code == EXIT_ACCEPT
    assert "bound=none" in out
    assert "verdict=PASS" in out


def test_stats_genlemma_takes_no_cap(capsys):
    # it builds no instance context, so a budget would be read by nothing
    with pytest.raises(SystemExit) as exc:
        main(["stats-genlemma", "--group", "fixtures/group_c3.txt", "--k", "2", "--trials", "5", "--cap", "0"])
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_ERROR
    assert captured.out == ""
    assert "unrecognized arguments: --cap" in captured.err


def test_genlemma_bound_thresholds():
    assert genlemma_bound(3, 11) is None
    assert genlemma_bound(3, 12) == 0.5
    assert genlemma_bound(3, 23) == 0.5
    assert genlemma_bound(3, 24) == 1 - 2 ** -3 - 0.02
    assert genlemma_bound(4, 32) == 1 - 2 ** -4 - 0.02


def test_malformed_instance_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("degree: 3\nA0: 2 3 1\n", encoding="ascii")
    code, out, err = run_main(capsys, "decide", "--instance", str(bad))
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error:")


def test_missing_instance_file(capsys):
    code, _, err = run_main(capsys, "decide", "--instance", "does/not/exist.txt")
    assert code == EXIT_ERROR
    assert "error:" in err


def test_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("PERMZK_SEED", "5")
    code_env, out_env, _ = run_main(capsys, "prove", "--instance", TINY)
    code_flag, out_flag, _ = run_main(capsys, "prove", "--instance", TINY, "--seed", "5")
    assert (code_env, out_env) == (code_flag, out_flag)


def test_seed_changes_transcript(capsys):
    _, out_a, _ = run_main(capsys, "prove", "--instance", Q2_GROUPS, "--seed", "1")
    _, out_b, _ = run_main(capsys, "prove", "--instance", Q2_GROUPS, "--seed", "2")
    assert out_a != out_b


def test_reruns_are_byte_identical_in_subprocess(child_env):
    cmd = [
        sys.executable, "-m", "permzk.cli",
        "prove", "--instance", TINY, "--trials", "5", "--seed", "11",
    ]
    a = subprocess.run(cmd, capture_output=True, text=True, env=child_env)
    b = subprocess.run(cmd, capture_output=True, text=True, env=child_env)
    assert a.returncode == b.returncode == EXIT_ACCEPT
    assert a.stdout == b.stdout != ""


def test_simulate_exact_without_generating_tuples_is_a_clean_error(capsys):
    # no single permutation generates S_3, so at k=1 the honest prover has
    # no commitment and the exact laws do not exist
    code, out, err = run_main(
        capsys, "simulate", "--instance", "fixtures/embed_s3.txt", "--exact", "--k", "1"
    )
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error:")


def test_simulate_exact_respects_cap(capsys):
    code, out, err = run_main(
        capsys, "simulate", "--instance", TINY, "--exact", "--k", "2", "--cap", "5"
    )
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error:") and "cap 5" in err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_simulate_exact_refuses_k_below_one_like_the_sampler(capsys, k):
    # the exact path used to blame the instance (k=0) or leak an itertools
    # message (k=-1); both paths now give the sampler's refusal
    expected = (EXIT_ERROR, "", "error: k must be at least 1\n")
    assert run_main(capsys, "simulate", "--instance", TINY, "--k", k) == expected
    assert run_main(capsys, "simulate", "--instance", TINY, "--exact", "--k", k) == expected


@pytest.mark.parametrize("k", ["0", "-5"])
def test_simulate_element_refuses_k_below_one(capsys, k):
    # an element commitment is one permutation whatever k is, but k < 1 is
    # refused as on the group path instead of ignored
    expected = (EXIT_ERROR, "", "error: k must be at least 1\n")
    assert run_main(capsys, "simulate", "--instance", EC_YES, "--k", k) == expected


BAD_WITNESS = {
    # (2 3) is not in <(1 2 3)>
    "group": ("degree: 3\nA0: 2 3 1\nA1: 3 1 2\nU: 2 3 1\nwitness: 1 3 2\n", "witness is not an element of <U>"),
    # (2 3) is in <U> but fixes (1 2) instead of moving it to (1 3)
    "element": ("degree: 3\na0: 2 1 3\na1: 2 1 3\nU: 1 3 2\nwitness: 1 3 2\n", "witness does not conjugate side 0 onto side 1"),
}
BAD_WITNESS_COMMANDS = [
    ("decide",),
    ("prove",),
    ("prove", "--protocol", "non-conj"),
    ("prove", "--protocol", "elem-conj"),
    ("prove", "--protocol", "group-conj"),
    ("simulate",),
]


@pytest.mark.parametrize("variant", sorted(BAD_WITNESS))
@pytest.mark.parametrize("command", BAD_WITNESS_COMMANDS, ids=" ".join)
def test_bad_witness_fails_first_on_every_command(tmp_path, capsys, variant, command):
    # the witness error comes before any protocol check, even for a
    # protocol that does not fit the instance
    text, message = BAD_WITNESS[variant]
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert run_main(capsys, command[0], "--instance", str(path), *command[1:]) == (EXIT_ERROR, "", f"error: {message}\n")


@pytest.mark.parametrize("keys", [("A0", "A1"), ("a0", "a1")], ids=["group", "element"])
def test_decide_answers_sides_of_different_orders_under_a_small_cap(tmp_path, capsys, keys):
    # <(1 2)> and <(1 2 3)> differ in order (and (1 2), (1 2 3) in cycle
    # type), so the answer needs no scan of <U> = S_6, and a cap under its
    # 720 elements refuses nothing
    path = tmp_path / "orders.txt"
    path.write_text(f"degree: 6\n{keys[0]}: 2 1 3 4 5 6\n{keys[1]}: 2 3 1 4 5 6\nU: 2 1 3 4 5 6;2 3 4 5 6 1\n")
    assert run_main(capsys, "decide", "--instance", str(path), "--cap", "10") == (EXIT_REJECT, "answer=no\n", "")


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("stats-genlemma", "--group", "fixtures/group_c3.txt", "--k", "12", "--trials", "0"), "--trials"),
        (("stats-genlemma", "--group", "fixtures/group_c3.txt", "--k", "0", "--trials", "20"), "--k"),
        (("simulate", "--instance", TINY, "--k", "3", "--samples", "0"), "--samples"),
        (("simulate", "--instance", TINY, "--k", "3", "--samples", "-3"), "--samples"),
    ],
)
def test_counts_below_one_are_usage_errors(capsys, argv, flag):
    # --trials 0 and --samples 0/-3 used to end in a ZeroDivisionError
    # traceback, --k 0 in a vacuous verdict=PASS
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_ERROR
    assert captured.out == ""
    assert f"{flag} must be at least 1" in captured.err


# Every example command in the README, with its exact stdout and exit code.
README_GOLDEN = [
    (
        "decide --instance fixtures/q2_groups.txt",
        "answer=yes\nwitness=4 6 5 1 3 2\n",
        EXIT_ACCEPT,
    ),
    ("decide --instance fixtures/q2_elements.txt", "answer=no\n", EXIT_REJECT),
    (
        "prove --instance fixtures/tiny_cyclic.txt --seed 7",
        "s1.r1 P 2 3 1;3 1 2;3 1 2;2 3 1;1 2 3;3 1 2;3 1 2;3 1 2;1 2 3;3 1 2;3 1 2;1 2 3\n"
        "s1.r2 V 0\n"
        "s1.r3 P 3 1 2\n"
        "ACCEPT\n",
        EXIT_ACCEPT,
    ),
    (
        "prove --instance fixtures/no_m4.txt --protocol non-conj --trials 50 --seed 3",
        "trials=50\naccepted=50\nrate=1.000000\n",
        EXIT_ACCEPT,
    ),
    (
        "simulate --instance fixtures/q2_groups.txt --exact --k 2 --tape-seed 4",
        "mode=exact\ndomain=16\nlaws_equal=True\nuniform_on_consistent=True\ntv_distance_upper=0\nbijection=OK\n",
        EXIT_ACCEPT,
    ),
    (
        "simulate --instance fixtures/tiny_cyclic.txt --k 3 --samples 300 --seed 6 --tape-seed 1",
        "mode=stat\nsamples=300\ncells=12\nrestarts_mean=1.81333\nattempts_per_restart=1.04779\n"
        "chi2_p=0.136744\ntv_distance_upper=0.143333\n",
        EXIT_ACCEPT,
    ),
    (
        "stats-genlemma --group fixtures/group_c3.txt --k 12 --trials 200 --seed 2",
        "group_order=3\nk=12\ntrials=200\nfrequency=1.000000\nbound=0.5\nverdict=PASS\n",
        EXIT_ACCEPT,
    ),
]


@pytest.mark.parametrize("command,stdout,code", README_GOLDEN, ids=[c for c, _, _ in README_GOLDEN])
def test_readme_commands_golden(capsys, monkeypatch, command, stdout, code):
    monkeypatch.delenv("PERMZK_SEED", raising=False)
    assert run_main(capsys, *command.split()) == (code, stdout, "")


ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_block_runs(child_env):
    # the README's "Library use" example, run as written from the repo root
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    result = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=child_env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# Every README command, a non-conjugacy transcript (the honest prover's
# conjugate tables are frozensets of raw images) and an exact check on a
# second fixture, each followed by its exit code.
HASH_SEED_SCRIPT = """
from permzk.cli import main
for command in COMMANDS:
    print("exit=%d" % main(command.split()), flush=True)
"""
HASH_SEED_COMMANDS = [command for command, _, _ in README_GOLDEN] + [
    "prove --instance fixtures/no_m4.txt --protocol non-conj --seed 3",
    "simulate --instance fixtures/embed_s3.txt --exact --k 2 --tape-seed 1",
]


def test_stdout_does_not_depend_on_the_hash_seed(child_env):
    # a bytes hash is salted per process, a hash of a tuple of ints is not:
    # no iteration over a set of raw images may reach the output
    script = f"COMMANDS = {HASH_SEED_COMMANDS!r}\n" + HASH_SEED_SCRIPT
    runs = []
    for seed in ("0", "1"):
        env = dict(child_env, PYTHONHASHSEED=seed)
        runs.append(subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True))
    assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr + runs[1].stderr
    assert runs[0].stdout.count("exit=") == len(HASH_SEED_COMMANDS)
    assert (runs[0].stdout, runs[0].stderr) == (runs[1].stdout, runs[1].stderr)


# The digests of helpers.DEGREE_300_TEXT's commands are sha256 of stdout,
# taken before raw images became bytes.
DEGREE_300_GOLDEN = [
    ("decide", "ac1aff7e71b5f65968b7a8d218ff9b5c5f665ba40eb5da41bc65abdc2bbd6b71"),
    ("prove --seed 0", "8ad717f9a41fd8a97c027230df7fefd3317d25bf7952eb4884d57fae132d9dd4"),
    ("prove --rounds 2 --seed 0 --k 6", "f03546c84a8bbe6eaa7fb9f817df54ef0e319b82281df3d0bf2d3686462aa6c5"),
    ("prove --protocol non-conj --seed 1", "de7ab9e5841fc3acace4c6bff0874aef071f88f01f70372a764140d7a4ad0e93"),
    (
        "simulate --k 4 --samples 40 --seed 0 --tape-seed 1",
        "412db860f29e9b8fe92d68cdfcce0e492bf5999299c60f439ab60a3e61f6675e",
    ),
]


@pytest.mark.parametrize("args,digest", DEGREE_300_GOLDEN, ids=[a for a, _ in DEGREE_300_GOLDEN])
def test_degree_300_instance_golden(tmp_path, capsys, monkeypatch, args, digest):
    monkeypatch.delenv("PERMZK_SEED", raising=False)
    path = tmp_path / "degree_300.txt"
    path.write_text(DEGREE_300_TEXT)
    command, *rest = args.split()
    code, out, err = run_main(capsys, command, "--instance", str(path), *rest)
    assert (code, err) == (EXIT_ACCEPT, "")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


# stats-genlemma on groups too large for masks (|G|^2 over the search cap),
# where each trial runs the chain test: S_5 at degree 5 and S_4 wr S_4 on
# four blocks of four points.  The digests are sha256 of stdout, taken
# before that test was seeded with G's own chain.
UNMASKED_GENLEMMA_GOLDEN = [
    ("5", "2 1 3 4 5;2 3 4 5 1", "--trials 300 --seed 2", "708f7e846a7e8b6d3533926a1081dc3697058cbbd3ecab0c6bb696ea52d38f22"),
    (
        "16",
        "2 1 3 4 5 6 7 8 9 10 11 12 13 14 15 16;2 3 4 1 5 6 7 8 9 10 11 12 13 14 15 16;"
        "5 6 7 8 1 2 3 4 9 10 11 12 13 14 15 16;5 6 7 8 9 10 11 12 13 14 15 16 1 2 3 4",
        "",
        "b4c3540fa2db86cc94d9dc0067d4366f076c86e130879ff60eaef1e1f1e7ac97",
    ),
]


@pytest.mark.parametrize("degree,gens,rest,digest", UNMASKED_GENLEMMA_GOLDEN, ids=["S5", "S4wrS4"])
def test_stats_genlemma_without_masks_golden(tmp_path, capsys, monkeypatch, degree, gens, rest, digest):
    monkeypatch.delenv("PERMZK_SEED", raising=False)
    path = tmp_path / "group.txt"
    path.write_text(f"degree: {degree}\nG: {gens}\n")
    code, out, err = run_main(capsys, "stats-genlemma", "--group", str(path), "--k", "2", *rest.split())
    assert (code, err) == (EXIT_ACCEPT, "")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_declared_dependencies_import():
    # the third-party packages that the package and its tests import are
    # the ones pyproject.toml declares, and each of them imports
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = project["dependencies"] + project["optional-dependencies"]["test"]
    names = [re.split(r"[<>=!~\[; ]", d, maxsplit=1)[0] for d in declared]
    assert names == ["scipy", "pytest", "hypothesis"]
    for name in names:
        importlib.import_module(name)


HUGE = 10**18


@pytest.mark.parametrize(
    "argv",
    [
        ("decide", "--instance", "huge.txt"),
        ("prove", "--instance", "huge.txt"),
        ("simulate", "--instance", "huge.txt", "--exact"),
        ("stats-genlemma", "--group", "huge_group.txt", "--k", "2", "--trials", "2"),
    ],
    ids=lambda argv: argv[0],
)
def test_huge_declared_degree_is_a_clean_error(tmp_path, capsys, argv):
    # the parser accepts the degree without allocating per point; the first
    # permutation of that degree asks for 8 EB, which fails at once
    (tmp_path / "huge.txt").write_text(f"degree: {HUGE}\nA0:\nA1:\nU:\n")
    (tmp_path / "huge_group.txt").write_text(f"degree: {HUGE}\nG:\n")
    argv = [str(tmp_path / a) if a.startswith("huge") else a for a in argv]
    code, out, err = run_main(capsys, *argv)
    assert (code, out) == (EXIT_ERROR, "")
    assert err.startswith("error: out of memory")


# Flags of each subcommand, with the values a draw picks from.  Counts stay
# in -2..4 and instances are the fixtures, so no draw runs long or allocates
# per declared point.
SMALL_INTS = tuple(str(i) for i in range(-2, 5))
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PATHS = tuple(sorted(f"fixtures/{p.name}" for p in FIXTURES.glob("*.txt"))) + ("fixtures/missing.txt",)
VALUES = {
    "--instance": PATHS,
    "--group": PATHS,
    "--protocol": ("group-conj", "non-conj", "elem-conj"),
    "--prover": ("honest", "guess", *sorted(STANDARD_RESPONDERS)),
    "--verifier": tuple(sorted(STANDARD_VERIFIERS)),
    "--compose": ("seq", "par"),
}
COMMON = ("--seed", "--out")
FLAGS = {
    "decide": ("--instance", "--cap", *COMMON),
    "prove": ("--instance", "--protocol", "--rounds", "--k", "--trials", "--prover", "--verifier", "--compose", "--cap", *COMMON),
    "simulate": ("--instance", "--k", "--samples", "--exact", "--verifier", "--tape-seed", "--cap", *COMMON),
    "stats-genlemma": ("--group", "--k", "--trials", *COMMON),
}
REQUIRED = {"decide": ("--instance",), "prove": ("--instance",), "simulate": ("--instance",), "stats-genlemma": ("--group", "--k")}
JUNK = ("", "-", "--", "junk", "-h", "--bogus", "1e3", "0x1", "\u0663", "--k=")
# The defaults of these counts (5,000 samples, 1,000 trials) take seconds.
SMALL_DEFAULTS = {"simulate": ("--samples", "3"), "stats-genlemma": ("--trials", "3")}


@st.composite
def cli_argv(draw, out: str):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    # the required flags come first and are left out one time in ten, so most
    # draws get past the usage checks
    required = [flag for flag in REQUIRED[command] if draw(st.integers(0, 9))]
    for flag in required + draw(st.lists(st.sampled_from(FLAGS[command]), max_size=5)):
        argv.append(flag)
        if flag == "--exact":
            continue
        value = out if flag == "--out" else draw(st.sampled_from(VALUES.get(flag, SMALL_INTS)))
        kind = draw(st.integers(0, 9))
        if kind == 0:
            continue
        argv.append(draw(st.sampled_from(JUNK)) if kind == 1 else value)
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK)))
    flag, value = SMALL_DEFAULTS.get(command, (None, None))
    if flag is not None and flag not in argv:
        argv += [flag, value]
    return argv


@pytest.fixture(scope="module")
def fuzz_out(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("fuzz") / "out.txt")


@settings(max_examples=400, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_argv_fuzz_ends_in_an_exit_code(fuzz_out, capsys, data):
    # every argv ends as exit 0, 1 or 2 from main, or as argparse's
    # SystemExit 0 (help) or 2 (usage); nothing else may escape
    argv = data.draw(cli_argv(fuzz_out))
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code in (0, 2), argv
    else:
        assert code in (EXIT_ACCEPT, EXIT_REJECT, EXIT_ERROR), argv
    capsys.readouterr()
