import dataclasses
import json
import os
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest

import kiselman
from kiselman import enumeration, level_metric, selftest, stochastic
from kiselman.cli import run
from conftest import KNOWN_SIZES, sample_from_pmf


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_reduce(capsys):
    code, out = capture(capsys, ["reduce", "--n", "2", "--word", "1 2 1"])
    assert code == 0
    assert out == "2 1\n"


def test_reduce_json(capsys):
    code, out = capture(capsys, ["reduce", "--n", "2", "--word", "1 2 1", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"element": "2 1", "rank": 2}


def test_level_of_empty_word(capsys):
    code, out = capture(capsys, ["level", "--n", "3", "--word", ""])
    assert code == 0
    assert out == "3\n"


def test_mul_tau_content_delete(capsys):
    assert capture(capsys, ["mul", "--n", "2", "--left", "1", "--right", "2 1"])[1] == "2 1\n"
    assert capture(capsys, ["tau", "--n", "2", "--word", "1"])[1] == "2\n"
    assert capture(capsys, ["content", "--n", "2", "--word", "2 1"])[1] == "1 2\n"
    assert capture(capsys, ["delete", "--n", "3", "--word", "2 1", "--set", "1"])[1] == "2\n"


def test_m_and_dist(capsys):
    assert capture(capsys, ["m", "--n", "3", "--word", "3 2 1"])[1] == "0\n"
    assert capture(capsys, ["dist", "--n", "2", "--x", "1", "--y", "2"])[1] == "2\n"


def test_pmf_values(capsys):
    code, out = capture(capsys, ["pmf", "--n", "2", "--p", "0.5,0.5", "--k", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert "P(T=2)=0.25" in lines
    assert "P(T=3)=0.25" in lines
    assert "P(T=4)=0.1875" in lines


def test_enumerate(capsys):
    code, out = capture(capsys, ["enumerate", "--n", "2"])
    assert code == 0
    assert out.splitlines() == ["", "1", "2", "1 2", "2 1"]


def test_enumerate_table(capsys):
    code, out = capture(capsys, ["enumerate", "--n", "3", "--table"])
    assert code == 0
    assert out.splitlines() == ["2\t5", "3\t18"]


def test_enumerate_table_counts_past_rank_6(capsys):
    code, out = capture(capsys, ["enumerate", "--n", "10", "--table"])
    assert code == 0
    assert out.splitlines() == [f"{n}\t{KNOWN_SIZES[n]}" for n in range(2, 11)]


def test_enumerate_table_below_rank_2_is_a_usage_error(capsys):
    assert run(["enumerate", "--n", "1", "--table"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("argv, line", [
    (["reduce", "--word", "1 2 1"], "2 1\t3"),
    (["content", "--word", "2 1"], "1 2"),
    (["level", "--word", "1"], "1\t3"),
    (["dist", "--x", "1", "--y", "2"], "1\t2\t2"),
], ids=["reduce", "content", "level", "dist"])
def test_tsv_output(argv, line, capsys):
    code, out = capture(capsys, [argv[0], "--n", "3", *argv[1:], "--format", "tsv"])
    assert code == 0
    assert out == line + "\n"


def test_ball_sphere_rset(capsys):
    code, out = capture(capsys, ["ball", "--n", "2", "--center", "2 1", "--r", "1"])
    assert code == 0
    assert set(out.splitlines()) == {"2", "1 2", "2 1"}
    code, out = capture(capsys, ["rset", "--n", "2"])
    assert set(out.splitlines()) == {"2", "1 2", "2 1"}
    code, out = capture(capsys, ["sphere", "--n", "2", "--center", "2 1", "--r", "2"])
    assert set(out.splitlines()) == {"", "1"}


def test_ball_of_e_in_k6_prints_k4(capsys):
    # the ball of radius 4 around e is <a_1, ..., a_4>, which is K_4
    code, ball = capture(capsys, ["ball", "--n", "6", "--r", "4"])
    assert code == 0
    assert ball == capture(capsys, ["enumerate", "--n", "4"])[1]


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "3"],
    ["ball", "--n", "3", "--center", "2 1", "--r", "2"],
    ["sphere", "--n", "3", "--center", "1 3", "--r", "3"],
    ["rset", "--n", "3"],
], ids=["enumerate", "ball", "sphere", "rset"])
def test_element_list_json_equals_the_plain_lines(argv, capsys):
    code, plain = capture(capsys, argv)
    assert code == 0 and plain
    code, out = capture(capsys, [*argv, "--format", "json"])
    assert code == 0
    assert json.loads(out) == plain.splitlines()


def test_chain_output(capsys):
    code, out = capture(capsys, ["chain", "--n", "2", "--p", "0.3,0.7", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"][1] == [0.3, 0.7, 0.0]


# (n, p): the CLI reads p as printed here, so it parses the same floats
CHAIN_GRID = [
    (2, (0.5, 0.5)), (2, (0.999, 0.001)), (2, (0.3, 0.7)),
    (3, (0.2, 0.3, 0.5)), (3, (0.1, 0.1, 0.8)),
    (4, (0.1, 0.2, 0.3, 0.4)), (4, (0.25, 0.25, 0.25, 0.25)),
    (5, (0.1, 0.15, 0.2, 0.25, 0.3)), (5, (0.02, 0.92, 0.02, 0.02, 0.02)),
]


def api_chain_text(p, fmt):
    chain = stochastic.transition_matrix(p)
    if fmt == "json":
        record = {"matrix": chain.matrix.tolist(), "initial": chain.initial.tolist()}
        return json.dumps(record) + "\n"
    return "".join(" ".join(f"{v:.12g}" for v in row) + "\n" for row in chain.matrix)


def api_pmf_text(p, k_max, fmt):
    pmf = stochastic.exact_hitting_pmf(p, k_max=k_max)
    if fmt == "json":
        return json.dumps({"probs": pmf.probs.tolist(), "tail_mass": pmf.tail_mass,
                           "mean": pmf.mean()}) + "\n"
    rows = [f"P(T={k})={prob:.12g}" for k, prob in enumerate(pmf.probs)]
    return "".join(row + "\n" for row in rows + [f"tail={pmf.tail_mass:.12g}"])


@pytest.mark.parametrize("fmt", ["plain", "json"])
@pytest.mark.parametrize("n, p", CHAIN_GRID, ids=[",".join(map(str, p)) for _, p in CHAIN_GRID])
def test_chain_and_pmf_print_what_the_api_computes(n, p, fmt, capsys):
    base = ["--n", str(n), "--p", ",".join(map(repr, p)), "--format", fmt]
    assert capture(capsys, ["chain", *base]) == (0, api_chain_text(p, fmt))
    for k_max in (None, 0, 5, 40):
        k_arg = [] if k_max is None else ["--k", str(k_max)]
        assert capture(capsys, ["pmf", *base, *k_arg]) == (0, api_pmf_text(p, k_max, fmt))


def test_usage_errors(capsys):
    assert run(["reduce", "--n", "2", "--word", "5"]) == 2
    assert run(["nonsense"]) == 2
    assert run(["simulate", "--n", "2", "--p", "0.5,0.5", "--trials", "10"]) == 2  # no seed


def test_budget_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(enumeration, "ELEMENT_BUDGET", 10)
    code, out = capture(capsys, ["enumerate", "--n", "4"])
    assert (code, out) == (3, "")
    monkeypatch.setattr(enumeration, "ELEMENT_BUDGET", KNOWN_SIZES[2])
    assert capture(capsys, ["enumerate", "--n", "2"])[0] == 0


@pytest.mark.parametrize("table", [[], ["--table"]], ids=["list", "table"])
def test_negative_cap_is_a_usage_error(table, capsys):
    # no option sets a budget: --cap, of any value, is an unknown argument
    for cap in ("-5", "5"):
        assert run(["enumerate", "--n", "3", "--cap", cap, *table]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --cap" in captured.err


def test_ball_past_the_cap_is_refused_before_enumerating(capsys):
    # |K_7| is over ELEMENT_BUDGET: every larger rank is refused by the count
    # of K_7, before any element is built
    for n in ("7", "18", "1000000000000"):
        for argv in (["enumerate"], ["ball", "--center", "1", "--r", "1"],
                     ["sphere", "--r", "1"], ["rset"]):
            assert run([argv[0], "--n", n, *argv[1:]]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "budget exceeded" in captured.err and "K_7 has 22263378" in captured.err


def test_cardinality_table_budget_exit_code(monkeypatch, capsys):
    # K_19's 2^19 idempotents reach distinct states: refused before any is built
    for n in ("19", "1000000000000"):
        assert run(["enumerate", "--n", n, "--table"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"automaton of K_{n} has more than" in captured.err
    # K_3's automaton has 13 states
    monkeypatch.setattr(enumeration, "STATE_BUDGET", 12)
    assert run(["enumerate", "--n", "3", "--table"]) == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_pmf_budget_exit_codes(capsys):
    # an explicit truncation over the budget is refused before any work
    assert run(["pmf", "--n", "2", "--p", "0.5,0.5", "--k", str(stochastic.PMF_MAX_K + 1)]) == 3
    assert capsys.readouterr().out == ""
    # the default truncation of (1 - 1e-7, 1e-7) needs about 2e8 terms
    assert run(["pmf", "--n", "2", "--p", "0.9999999,0.0000001"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget exceeded" in captured.err


def test_pmf_negative_truncation_is_a_usage_error(capsys):
    assert run(["pmf", "--n", "2", "--p", "0.5,0.5", "--k", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("command", ["pmf", "chain", "simulate"])
def test_non_finite_probabilities_are_usage_errors(command, capsys):
    extra = ["--trials", "10", "--seed", "1"] if command == "simulate" else []
    for p in ("nan,0.5", "0.5,inf"):
        assert run([command, "--n", "2", "--p", p, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


def test_delete_set_out_of_range_is_a_usage_error(capsys):
    assert run(["delete", "--n", "3", "--word", "2 1", "--set", "9"]) == 2
    assert run(["delete", "--n", "3", "--word", "2 1", "--set", "0,1"]) == 2
    assert capsys.readouterr().out == ""
    assert capture(capsys, ["delete", "--n", "3", "--word", "3 2 1", "--set", ""])[1] == "3 2 1\n"


def test_simulate_roundtrip_and_verify(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    argv = [
        "simulate", "--n", "2", "--p", "0.5,0.5", "--trials", "100000",
        "--seed", "42", "--mode", "full", "--out", str(out_file),
    ]
    code, out1 = capture(capsys, argv)
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["verdict"] == "pass"
    assert payload["crosscheck_failures"] == 0
    code, _ = capture(capsys, ["verify", "--n", "2", "--report", str(out_file)])
    assert code == 0


def test_simulate_envelope_names_backend_and_version(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    argv = ["simulate", "--n", "3", "--p", "0.2,0.3,0.5", "--trials", "500", "--seed", "4",
            "--out", str(out_file)]
    code, out = capture(capsys, argv)
    assert code == 0
    assert out_file.read_text() == out
    envelope = json.loads(out)
    assert envelope["kernel_backend"] == kiselman.KERNEL_BACKEND
    assert envelope["kiselman_version"] == kiselman.__version__
    # the report inside the envelope is unchanged: from_json skips the extra keys
    report = stochastic.simulate(3, (0.2, 0.3, 0.5), trials=500, seed=4)
    assert stochastic.SimulationReport.from_json(out).to_json() == report.to_json()
    assert "kernel_backend" not in json.loads(report.to_json())


def test_verify_help_states_the_tv_failure_probability(capsys):
    code, out = capture(capsys, ["verify", "--help"])
    assert code == 0
    assert f"probability {stochastic.TV_FAILURE_PROB:g}" in " ".join(out.split())


def test_selftest_reports_a_failing_check(monkeypatch, capsys):
    monkeypatch.setattr(selftest, "CHECKS", [("holds", lambda: True), ("breaks", lambda: False)])
    code, out = capture(capsys, ["selftest"])
    assert code == 1
    assert out.splitlines() == ["PASS  holds", "FAIL  breaks", "1/2 checks passed"]


def test_selftest_goes_on_past_a_raising_check(monkeypatch, capsys):
    def raises():
        raise AssertionError("truncation table disagrees with distance")

    monkeypatch.setattr(selftest, "CHECKS", [("raises", raises), ("holds", lambda: True)])
    code, out = capture(capsys, ["selftest"])
    assert code == 1
    assert out.splitlines() == ["FAIL  raises", "PASS  holds", "1/2 checks passed"]


def test_selftest_goes_on_past_an_unstable_oracle(monkeypatch, capsys):
    # unequal root lists: the oracle's slack-stability check raises CrosscheckError
    monkeypatch.setattr(enumeration, "_closure_roots", lambda n, max_len: ([0], [1]))
    oracle = "reduction returns the least word of its congruence class"
    monkeypatch.setattr(selftest, "CHECKS", [(oracle, dict(selftest.CHECKS)[oracle]),
                                             ("holds", lambda: True)])
    code, out = capture(capsys, ["selftest"])
    assert code == 1
    assert out.splitlines() == [f"FAIL  {oracle}", "PASS  holds", "1/2 checks passed"]


def test_failed_spot_check_exit_code(monkeypatch, capsys):
    # a distance that lies makes the spot check of ``ball`` raise CrosscheckError
    monkeypatch.setattr(level_metric, "distance", lambda x, y: x.rank + 1)
    assert run(["ball", "--n", "3", "--r", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failed: ")
    assert len(captured.err.splitlines()) == 1


def test_simulation_step_budget_exit_code(capsys):
    argv = ["simulate", "--n", "2", "--p", "0.99999999,0.00000001", "--trials", "1",
            "--seed", "1", "--mode", "level"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget exceeded" in captured.err


def test_trial_step_budget_exit_code(monkeypatch, capsys):
    # the pmf fits its budget; a trial longer than STEP_BUDGET steps does not
    monkeypatch.setattr(stochastic, "STEP_BUDGET", 3)
    argv = ["simulate", "--n", "2", "--p", "0.5,0.5", "--trials", "100", "--seed", "1"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeded step budget 3" in captured.err


def test_crosscheck_failure_exit_code(monkeypatch, capsys):
    def diverging(*args, **kwargs):
        raise stochastic.CrosscheckError("1 level/product mismatches")

    monkeypatch.setattr(stochastic, "simulate", diverging)
    argv = ["simulate", "--n", "2", "--p", "0.5,0.5", "--trials", "10", "--seed", "1"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == "verification failed: 1 level/product mismatches\n"


def test_wrong_stream_seed_exit_code(monkeypatch, capsys):
    trial_streams = stochastic._trial_streams

    def corrupted(seed, start, stop):
        streams = trial_streams(seed, start, stop)
        streams[3][0] ^= np.uint64(2)  # the low half of trial 0's increment
        return streams

    monkeypatch.setattr(stochastic, "_trial_streams", corrupted)
    argv = ["simulate", "--n", "2", "--p", "0.5,0.5", "--trials", "10", "--seed", "1"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failed: stream of trial 0 differs")


def test_corrupted_jump_table_exit_code(monkeypatch, capsys):
    jump_table = stochastic._jump_table

    def corrupted():
        high, low = (column.copy() for column in jump_table())
        low[0] ^= np.uint64(1 << 40)
        return high, low

    monkeypatch.setattr(stochastic, "_jump_table", corrupted)
    argv = ["simulate", "--n", "2", "--p", "0.5,0.5", "--trials", "10", "--seed", "1"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failed: stream of trial 0 differs")


def test_impossible_pmf_is_refused_before_any_trial(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("simulate ran although the pmf is past its budget")

    monkeypatch.setattr(stochastic, "simulate", never)
    argv = ["simulate", "--n", "2", "--p", "0.999999,0.000001", "--trials", "1", "--seed", "0"]
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget exceeded: pmf tail mass")


@pytest.mark.parametrize("extra", [["--trials", "0", "--seed", "0"], ["--trials", "1", "--seed", "-1"]])
def test_bad_trials_or_seed_is_a_usage_error_before_the_pmf(extra, capsys):
    argv = ["simulate", "--n", "2", "--p", "0.999999,0.000001", *extra]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_negative_seed_exit_code(capsys):
    argv = ["simulate", "--n", "2", "--p", "0.5,0.5", "--trials", "10", "--seed", "-1"]
    assert run(argv) == 2
    assert capsys.readouterr().out == ""


def test_report_with_wrong_trials_is_an_input_error(tmp_path, capsys):
    payload = json.loads(stochastic.simulate(2, (0.5, 0.5), trials=100, seed=1).to_json())
    payload["trials"] += 1
    report = tmp_path / "report.json"
    report.write_text(json.dumps(payload))
    assert run(["verify", "--n", "2", "--report", str(report)]) == 2
    assert "error:" in capsys.readouterr().err


def test_report_without_trials_is_an_input_error(tmp_path, capsys):
    payload = json.loads(stochastic.simulate(2, (0.5, 0.5), trials=100, seed=1).to_json())
    payload["trials"], payload["histogram"] = 0, {}
    report = tmp_path / "report.json"
    report.write_text(json.dumps(payload))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by zero on the way to the error
        assert run(["verify", "--n", "2", "--report", str(report)]) == 2
    assert "at least one trial" in capsys.readouterr().err


def test_report_without_rank_is_an_input_error(tmp_path, capsys):
    payload = json.loads(stochastic.simulate(2, (0.5, 0.5), trials=100, seed=1).to_json())
    del payload["rank"]
    report = tmp_path / "report.json"
    report.write_text(json.dumps(payload))
    assert run(["verify", "--n", "2", "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "'rank'" in captured.err


@pytest.mark.parametrize("edit", [
    lambda r: dict(r, histogram=[1, 2]),
    lambda r: dict(r, trials="200"),
    lambda r: [1, 2],
    lambda r: dict(r, p=None),
    lambda r: dict(r, transition_counts=[1]),
    lambda r: dict(r, histogram={"2": 300, "3": -100}),
], ids=["histogram-list", "trials-string", "top-level-list", "p-null",
        "transition-counts-list", "negative-count"])
def test_malformed_report_is_an_input_error(edit, tmp_path, capsys):
    payload = json.loads(stochastic.simulate(2, (0.5, 0.5), trials=200, seed=4).to_json())
    report = tmp_path / "report.json"
    report.write_text(json.dumps(edit(payload)))
    assert run(["verify", "--n", "2", "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_one_bin_sample_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran before the refusal")

    # the bins depend on the pmf and the trial count alone: no trial runs
    simulate = stochastic.simulate
    monkeypatch.setattr(stochastic, "simulate", no_trial)

    def refused(argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert "too few to test" in captured.err

    report = tmp_path / "report.json"
    # no test can run: 5 trials pool into one bin, and in 4 no bin reaches
    # an expected count of 5
    for trials in (5, 4):
        refused(["simulate", "--n", "2", "--p", "0.5,0.5", "--trials", str(trials),
                 "--seed", "1", "--out", str(report)])
        assert not report.exists()
        report.write_text(simulate(2, (0.5, 0.5), trials=trials, seed=1).to_json())
        refused(["verify", "--n", "2", "--report", str(report)])
        report.unlink()


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "2", "--p", "0.5,0.5", "--trials", "5", "--seed", "1"],
    ["verify", "--n", "2", "--report", "report.json"],
    ["selftest"],
], ids=["simulate", "verify", "selftest"])
def test_format_is_refused_where_it_has_no_effect(argv, capsys):
    assert run(argv + ["--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --format json" in captured.err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "2"],
    ["ball", "--n", "2", "--r", "1"],
    ["sphere", "--n", "2", "--r", "1"],
    ["rset", "--n", "2"],
    ["chain", "--n", "2", "--p", "0.5,0.5"],
    ["pmf", "--n", "2", "--p", "0.5,0.5", "--k", "3"],
], ids=["enumerate", "ball", "sphere", "rset", "chain", "pmf"])
def test_tsv_is_refused_where_it_has_no_effect(argv, capsys):
    assert run(argv + ["--format", "tsv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'tsv'" in captured.err


def test_table_takes_no_json_format(capsys):
    assert run(["enumerate", "--n", "3", "--table", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_verify_rank_must_match_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(stochastic.simulate(2, (0.5, 0.5), trials=100, seed=1).to_json())
    assert run(["verify", "--n", "5", "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rank 2" in captured.err


def test_shifted_histogram_fails_verification(tmp_path, capsys):
    payload = json.loads(
        stochastic.simulate(2, (0.5, 0.5), trials=20000, seed=3, mode="level").to_json()
    )
    payload["histogram"] = {str(int(k) + 1): v for k, v in payload["histogram"].items()}
    report = tmp_path / "report.json"
    report.write_text(json.dumps(payload))
    assert run(["verify", "--n", "2", "--report", str(report)]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_correct_run_at_rank_5_passes(capsys):
    # a fixed TV bound of 0.01 failed this run (TV 0.0253, chi-square p = 0.28)
    argv = ["simulate", "--n", "5", "--p", "0.1,0.15,0.2,0.25,0.3", "--trials", "20000",
            "--seed", "3", "--mode", "full"]
    code, out = capture(capsys, argv)
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_sample_from_a_perturbed_p_fails_verification(tmp_path, capsys):
    p = (0.2, 0.3, 0.5)
    perturbed = np.array([0.22, 0.3, 0.5]) / 1.02  # p_1 * 1.1, renormalised
    sample = sample_from_pmf(stochastic.exact_hitting_pmf(perturbed), 100_000, seed=5)
    report = tmp_path / "report.json"
    report.write_text(dataclasses.replace(sample, p=p).to_json())
    assert run(["verify", "--n", "3", "--report", str(report)]) == 1
    verdict = json.loads(capsys.readouterr().out)
    # both gates fail: TV above the derived bound, chi-square below the floor
    bound = stochastic.tv_tolerance(stochastic.exact_hitting_pmf(p), 100_000)
    assert verdict["tv_distance"] > bound
    assert verdict["chi2_pvalue"] < 1e-3


@pytest.mark.parametrize("bound", [
    ["--tv-bound", "nan"], ["--tv-bound", "inf"], ["--tv-bound", "-1"],
    ["--tv-bound", "0"], ["--tv-bound", "1.5"], ["--pvalue-floor", "nan"],
    ["--pvalue-floor=-inf"], ["--pvalue-floor", "-1"], ["--pvalue-floor", "1"],
    ["--tv-bound", "0.05"],
])
def test_verify_bounds_out_of_range_are_usage_errors(bound, tmp_path, capsys):
    # the verdict is one rule of the pmf and the trial count: verify takes no
    # bound option, so every bound, in range or not, is an unknown argument
    report = tmp_path / "report.json"
    report.write_text(stochastic.simulate(2, (0.5, 0.5), trials=100, seed=1).to_json())
    assert run(["verify", "--n", "2", "--report", str(report), *bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {bound[0]}" in captured.err


def test_cli_byte_determinism():
    argv = [
        sys.executable, "-m", "kiselman.cli",
        "simulate", "--n", "2", "--p", "0.5,0.5", "--trials", "2000", "--seed", "7",
    ]
    first = subprocess.run(argv, capture_output=True, timeout=300).stdout
    second = subprocess.run(argv, capture_output=True, timeout=300).stdout
    assert first == second


@pytest.mark.parametrize("command", ["pmf", "chain"])
def test_probabilities_must_match_rank(command, capsys):
    assert run([command, "--n", "3", "--p", "0.5,0.5"]) == 2
    assert capsys.readouterr().out == ""
    assert run([command, "--n", "2", "--p", "0.2,0.3,0.5"]) == 2


def test_missing_report_is_an_input_error(tmp_path, capsys):
    assert run(["verify", "--n", "2", "--report", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_unwritable_out_is_an_input_error(tmp_path, capsys):
    out_file = tmp_path / "no_such_dir" / "report.json"
    argv = ["simulate", "--n", "2", "--p", "0.5,0.5", "--trials", "100", "--seed", "1",
            "--out", str(out_file)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


# every subcommand whose work grows with --n, given a rank no budget admits
LARGE_RANK_COMMANDS = [
    ["level", "--word", "1"],
    ["m", "--word", "1"],
    ["dist", "--x", "1", "--y", "2"],
    ["enumerate"],
    ["enumerate", "--table"],
    ["ball", "--r", "1"],
    ["sphere", "--r", "1"],
    ["rset"],
]
# inputs that an admitted rank makes too large: a long word for a search by
# definition, a pmf pass of n·K stage updates, an automaton past its states,
# and the level chain's dense rows; each is refused with exit 3, except the
# rows of LARGE_INPUT_MEANS, whose pass is short and whose tail mean is O(n):
# they exit 0 with E[T] = sum(1/p_i)
P_1000 = ",".join(["0.001"] * 1000)
P_10000 = ",".join(["0.0001"] * 10000)
LARGE_INPUT_COMMANDS = {
    "m --n 512 --word 1..200": ["m", "--n", "512", "--word", " ".join(map(str, range(1, 201)))],
    "pmf --n 1000": ["pmf", "--n", "1000", "--p", P_1000],
    "simulate --n 1000": ["simulate", "--n", "1000", "--p", P_1000, "--trials", "10",
                          "--seed", "1"],
    "enumerate --n 1000 --table": ["enumerate", "--n", "1000", "--table"],
    "pmf --n 10000 --k 1 --format json": ["pmf", "--n", "10000", "--p", P_10000, "--k", "1",
                                          "--format", "json"],
    "chain --n 10000": ["chain", "--n", "10000", "--p", P_10000],
    "chain --n 30000": ["chain", "--n", "30000", "--p", ",".join([P_10000, *["0"] * 20000])],
}
LARGE_INPUT_MEANS = {"pmf --n 10000 --k 1 --format json": 1e8}
CHILD_ADDRESS_SPACE = 1 << 30  # bytes; a runaway child fails its allocations, not the host


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


@pytest.mark.parametrize("command, codes, mean", [
    *(pytest.param([c[0], "--n", "1000000000000", *c[1:]], (0, 2, 3), None, id=" ".join(c))
      for c in LARGE_RANK_COMMANDS),
    *(pytest.param(argv, (0,) if name in LARGE_INPUT_MEANS else (3,), LARGE_INPUT_MEANS.get(name),
                   id=name) for name, argv in LARGE_INPUT_COMMANDS.items()),
])
def test_large_rank_ends_within_the_exit_code_contract(command, codes, mean):
    argv = [sys.executable, "-m", "kiselman.cli", *command]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(argv, capture_output=True, timeout=5, env=env,
                          preexec_fn=_limit_address_space)
    assert done.returncode in codes, done.stderr
    assert b"Traceback" not in done.stderr
    if mean is not None:
        assert json.loads(done.stdout)["mean"] == mean
