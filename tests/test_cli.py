"""Command-line interface behaviour: outputs, manifests, exit codes."""

import hashlib
import json
import os
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from spinbus import build_chain, decompose_chain, general_values
from spinbus import cli
from spinbus.cli import parse_and_dispatch


def run(capsys, *argv):
    code = parse_and_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--N", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,lambda"
    assert len(lines) == 6
    values = sorted(float(line.split(",")[1]) for line in lines[1:])
    assert abs(values[0] + 4 * np.cos(np.pi / 6)) < 1e-12


def test_amplitude_json(capsys):
    code, out, _ = run(capsys, "amplitude", "--N", "7", "--n", "2", "--h", "5",
                       "--sources", "1,2", "--targets", "6,7", "--t", "10")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"real", "imag", "modulus"}
    assert data["modulus"] == pytest.approx(abs(complex(data["real"], data["imag"])))


def test_rdm_json(capsys):
    code, out, _ = run(capsys, "rdm", "--N", "7", "--n", "2", "--h", "5",
                       "--state", "1,0,0,0,0,0,0,0", "--t", "0")
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == ["11", "10", "01", "00"]
    rho = np.array(data["real"]) + 1j * np.array(data["imag"])
    assert rho.shape == (4, 4)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert abs(rho[3, 3] - 1.0) < 1e-12  # nothing has moved yet


def test_fidelity_closed_form_json(capsys):
    code, out, _ = run(capsys, "fidelity", "--N", "7", "--class", "omega1",
                       "--h", "5", "--t", "41.2")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "closed-form-omega1"
    assert data["stderr"] is None
    assert 0.0 <= data["value"] <= 1.0


def test_fidelity_mc_has_stderr(capsys):
    code, out, _ = run(capsys, "fidelity", "--N", "7", "--class", "general",
                       "--h", "5", "--t", "41.2", "--samples", "2000", "--seed", "3")
    assert code == 0
    data = json.loads(out)
    assert data["stderr"] > 0
    assert data["method"] == "monte-carlo-general"


@pytest.mark.parametrize("source, samples", [("flag", 1), ("config", 1), ("config", 2.7)])
def test_fidelity_mc_needs_two_whole_samples(tmp_path, capsys, source, samples):
    # --samples parses only integers, so a fractional count comes from a config
    argv = ["fidelity", "--N", "8", "--h", "9", "--t", "31"]
    if source == "flag":
        argv += ["--samples", str(samples)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": samples}))
        argv += ["--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "samples" in err


@pytest.mark.parametrize("threads", [2.5, True, 0])
def test_scan_threads_must_be_a_whole_count(tmp_path, capsys, threads):
    # --threads parses only integers, so a fraction or a bool comes from a config
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": threads}))
    code, out, err = run(capsys, "scan-field", "--N", "7", "--class", "omega1",
                         "--h-list", "0,5", "--t-max", "100", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "threads" in err


def test_fidelity_general_is_closed_form(capsys):
    chain = ("--N", "7", "--h", "5", "--t", "41.2")
    code, out, _ = run(capsys, "fidelity", *chain, "--class", "general")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "closed-form-general"
    assert data["stderr"] is None
    exact = general_values(decompose_chain(build_chain(7, 2, 5.0)), [41.2])[0]
    assert abs(data["value"] - exact) <= 1e-15


def test_single_field_scan_manifest_roundtrip(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "scan-field", "--N", "7", "--n", "2", "--h-list", "12",
                     "--class", "omega1", "--t-max", "1500", "--out", str(out))
    assert code == 0
    manifest = json.loads((tmp_path / "scan.csv.manifest.json").read_text())
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert manifest["outputs"]["scan.csv"]["sha256"] == digest
    assert manifest["tool"] == "spinbus"

    again = tmp_path / "again.csv"
    code, _, _ = run(capsys, "scan-field",
                     "--config", str(tmp_path / "scan.csv.manifest.json"),
                     "--out", str(again))
    assert code == 0
    assert again.read_bytes() == out.read_bytes()


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 5, "h": 3.0, "n": 1, "state_class": "one-qubit",
                               "t": 2.0}))
    code, out1, _ = run(capsys, "fidelity", "--config", str(cfg))
    assert code == 0
    code, out2, _ = run(capsys, "fidelity", "--config", str(cfg), "--t", "4.0")
    assert code == 0
    assert out1 != out2


def test_config_keys_are_the_command_options(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 7, "h_list": [8], "n": 2, "state_class": "omega1",
                               "t_max": 100, "samples": 7}))
    code, _, err = run(capsys, "scan-field", "--config", str(cfg))
    assert code == 2
    assert "'samples'" in err


@pytest.mark.parametrize("argv", [
    ("reproduce", "--figure", "4a", "--h-list", "0,10", "--t-max", "500"),
    ("reproduce", "--figure", "5", "--N-list", "7", "--t-max", "100", "--h-cap", "0.5"),
])
def test_reproduce_manifest_roundtrip(tmp_path, capsys, argv):
    out = tmp_path / "fig.csv"
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 0, err
    manifest = tmp_path / "fig.csv.manifest.json"
    command = json.loads(manifest.read_text())["command"]
    again = tmp_path / "again.csv"
    code, _, err = run(capsys, command, "--config", str(manifest), "--out", str(again))
    assert code == 0, err
    assert again.read_bytes() == out.read_bytes()


def test_scan_field_rows(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "scan-field", "--N", "7", "--class", "omega1",
                     "--h-list", "0,5", "--t-max", "400", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "N,n,h,t_star,fbar_max,class,seed"
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "0"


@pytest.mark.parametrize("h_list", ["0,5", "5,0"])
def test_scan_field_places_blocks_for_the_largest_field(tmp_path, capsys, h_list):
    out = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "scan-field", "--N", "8", "--class", "omega1",
                       "--h-list", h_list, "--t-max", "200", "--out", str(out))
    assert code == 0, err
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert [row[2] for row in rows] == h_list.split(",")
    assert all(row[1] == "2" for row in rows)


@pytest.mark.parametrize("argv", [
    ("scan-field", "--N", "7", "--class", "general", "--h-list", "0,5", "--t-max", "100"),
    ("scan-field", "--N", "7", "--class", "omega1", "--h-list", "0", "--t-max", "100"),
    ("threshold", "--N-list", "7", "--t-max", "100", "--h-cap", "0.5"),
    ("reproduce", "--figure", "4a", "--h-list", "0", "--t-max", "100"),
])
def test_scans_take_no_sample_count(capsys, argv):
    code, _, err = run(capsys, *argv, "--samples", "512")
    assert code == 2
    assert "--samples" in err


@pytest.mark.parametrize("argv", [
    ("fidelity", "--N", "7", "--h", "5", "--t", "3", "--class", "one-qubit",
     "--samples", "100"),
    ("fidelity", "--N", "7", "--h", "5", "--t", "3", "--seed", "4"),
    ("threshold", "--N-list", "7", "--t-max", "100", "--h-cap", "0.5", "--N", "8"),
    ("threshold", "--N-list", "7", "--t-max", "100", "--h-cap", "0.5", "--h", "3"),
    ("reproduce", "--figure", "5", "--N-list", "7", "--t-max", "100", "--h-cap", "0.5",
     "--N", "8"),
    ("reproduce", "--figure", "5", "--N-list", "7", "--h-list", "3", "--t-max", "100",
     "--h-cap", "0.5"),
    ("reproduce", "--figure", "4a", "--h-list", "0", "--t-max", "100", "--N-list", "7"),
    ("reproduce", "--figure", "4b", "--h-list", "0", "--t-max", "100", "--target", "0.9"),
    ("reproduce", "--figure", "4a", "--h-list", "0", "--t-max", "100", "--h-cap", "5"),
    ("reproduce", "--figure", "4a", "--h-list", "0", "--t-max", "100",
     "--h-resolution", "0.5"),
    ("scan-field", "--N", "7", "--h", "3", "--h-list", "0,5", "--class", "omega1",
     "--t-max", "200"),
    ("spectrum", "--N", "7", "--threads", "4", "--seed", "3"),
    ("spectrum", "--N", "7", "--seed", "3"),
    ("amplitude", "--N", "7", "--sources", "1", "--targets", "7", "--t", "3",
     "--threads", "2"),
    ("amplitude", "--N", "7", "--sources", "1", "--targets", "7", "--t", "3", "--seed", "1"),
    ("rdm", "--N", "7", "--state", "1,0,0,0,0,0,0,0", "--t", "3", "--threads", "2"),
    ("rdm", "--N", "7", "--state", "1,0,0,0,0,0,0,0", "--t", "3", "--seed", "1"),
    ("fidelity", "--N", "7", "--h", "5", "--t", "3", "--samples", "100", "--threads", "2"),
    ("verify", "--threads", "2"),
    ("scan-time", "--N", "7", "--class", "omega1", "--t-max", "100"),  # a retired command
    ("amplitude", "--N", "7", "--sources", "1", "--targets", "7", "--t", "nan"),
    ("rdm", "--N", "7", "--state", "1,0,0,0,0,0,0,0", "--t", "inf"),
    ("fidelity", "--N", "7", "--h", "5", "--class", "omega1", "--t", "-inf"),
    ("fidelity", "--N", "7", "--h", "5", "--t", "nan", "--samples", "100"),
    ("scan-field", "--N", "7", "--class", "omega1", "--h-list", ",", "--t-max", "100"),
    ("scan-field", "--N", "7", "--class", "omega1", "--h-min", "0", "--h-max", "5",
     "--h-step", "nan", "--t-max", "100"),
    ("reproduce", "--figure", "4a", "--h-list", ",", "--t-max", "100"),
    ("amplitude", "--N", "7", "--sources", "1", "--targets", "7", "--t", "3",
     "--out", "x.csv"),
    ("rdm", "--N", "7", "--state", "1,0,0,0,0,0,0,0", "--t", "3", "--out", "x.csv"),
    ("fidelity", "--N", "7", "--h", "5", "--t", "3", "--out", "x.csv"),
    ("verify", "--out", "x.csv"),
    ("reproduce", "--figure", "4a", "--h-list", "0", "--t-max", "100", "--h", "3"),
])
def test_options_that_do_not_apply_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2, out
    assert err.startswith("usage error:")


def test_threshold_command(tmp_path, capsys):
    out = tmp_path / "th.csv"
    code, _, _ = run(capsys, "threshold", "--N-list", "7", "--target", "0.8",
                     "--t-max", "1000", "--h-cap", "20", "--out", str(out))
    assert code == 0
    rows = out.read_text().strip().split("\n")
    assert len(rows) == 2
    field = float(rows[1].split(",")[2])
    assert 0.0 <= field <= 20.0


def test_threshold_defaults_to_the_window_of_its_lengths(tmp_path, capsys):
    """Without --t-max, threshold scans each length's default window, as
    scan-field does, and asks for --t-max when the lengths'
    defaults differ; the Fig. 5 search keeps the omega1 window."""
    out = tmp_path / "g.csv"
    argv = ("threshold", "--class", "general", "--target", "0.5", "--h-cap", "1")
    code, _, err = run(capsys, *argv, "--N-list", "7", "--out", str(out))
    assert code == 0, err
    manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
    assert manifest["params"]["t_max"] == 20000.0
    code, _, err = run(capsys, *argv, "--N-list", "7,8")
    assert code == 2 and "--t-max" in err
    out = tmp_path / "fig5.csv"
    code, _, err = run(capsys, "reproduce", "--figure", "5", "--out", str(out))
    assert code == 0, err
    manifest = json.loads((tmp_path / "fig5.csv.manifest.json").read_text())
    assert manifest["params"]["t_max"] == 13000.0


def test_threshold_chain_options_reach_the_scans(capsys):
    """--c shapes every scanned chain; the row at h = 0 is scan-field's."""
    argv = ("threshold", "--N-list", "7", "--profile", "ballistic", "--target", "0.5",
            "--t-max", "200", "--h-cap", "10")
    rows = {}
    for c in ("0.3", "1.0"):
        code, out, err = run(capsys, *argv, "--c", c)
        assert code == 0, err
        rows[c] = out.strip().split("\n")[1].split(",")
    assert rows["0.3"] != rows["1.0"]
    code, out, err = run(capsys, "scan-field", "--N", "7", "--profile", "ballistic",
                         "--c", "1.0", "--class", "omega1", "--t-max", "200", "--h-list", "0")
    assert code == 0, err
    scan = out.strip().split("\n")[1].split(",")
    assert rows["1.0"][2] == "0"
    assert rows["1.0"][3:5] == scan[3:5]


@pytest.mark.parametrize("cls, target, block", [("one-qubit", "0.97", "1"), ("omega1", "0.8", "2")])
def test_threshold_places_the_blocks_scan_field_does(capsys, cls, target, block):
    """Without --n, threshold's chains take the block scan-field gives the class,
    so its row at the field found is scan-field's row there."""
    code, out, err = run(capsys, "threshold", "--class", cls, "--N-list", "9", "--t-max", "100",
                         "--h-cap", "10", "--target", target)
    assert code == 0, err
    row = out.strip().split("\n")[1].split(",")
    assert float(row[2]) > 0 and row[1] == block
    code, out, err = run(capsys, "scan-field", "--class", cls, "--N", "9", "--t-max", "100",
                         "--h-list", row[2])
    assert code == 0, err
    assert out.strip().split("\n")[1].split(",") == row


@pytest.mark.parametrize("cls, n_sites", [("one-qubit", "4"), ("omega1", "6")])
def test_threshold_at_zero_field_runs_on_chains_too_short_for_a_barrier(capsys, cls, n_sites):
    code, out, err = run(capsys, "threshold", "--class", cls, "--N-list", n_sites,
                         "--t-max", "100", "--target", "0")
    assert code == 0, err
    assert out.strip().split("\n")[1].split(",")[2] == "0"


def test_reproduce_shrunk(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    code, _, _ = run(capsys, "reproduce", "--figure", "4a", "--h-list", "0,10",
                     "--t-max", "500", "--out", str(out))
    assert code == 0
    rows = out.read_text().strip().split("\n")
    assert len(rows) == 3


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.count("OK") >= 5


def test_exit_code_usage_error(capsys):
    code, _, err = run(capsys, "fidelity", "--N", "7", "--class", "omega1")
    assert code == 2
    assert "--t" in err


def test_exit_code_domain_error(capsys):
    code, _, err = run(capsys, "rdm", "--N", "7", "--h", "-3",
                       "--state", "1,0,0,0,0,0,0,0", "--t", "1")
    assert code == 1
    assert "field" in err


@pytest.mark.parametrize("argv", [
    ("scan-field", "--N", "7", "--h-list", "1e300"),
    ("scan-field", "--N", "7", "--class", "omega1", "--h-list", "1e300"),
    ("scan-field", "--N", "7", "--class", "one-qubit", "--h-list", "0,1e300"),
])
def test_a_field_whose_curvature_bound_overflows_is_an_error(tmp_path, capsys, argv):
    """A huge finite field is refused by name, with no overflow warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, *argv, "--t-max", "100", "--out", str(tmp_path / "scan.csv"))
    assert code == 1
    assert "1e+300" in err and "field" in err


@pytest.mark.parametrize("argv", [
    ("scan-field", "--N", "7", "--h-list", "5"),
    ("threshold", "--N-list", "7", "--h-cap", "1"),
])
def test_a_window_too_long_to_walk_is_an_error(capsys, argv):
    """A window whose coarse grid needs 2**53 points or more is refused by
    name, not walked chunk by chunk for ever."""
    code, out, err = run(capsys, *argv, "--t-max", "1e300")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "t_max = 1e+300" in err


def test_a_large_field_whose_curvature_bound_is_finite_still_scans(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, err = run(capsys, "scan-field", "--N", "7", "--h-list", "1e150", "--t-max", "100",
                       "--out", str(out))
    assert code == 0, err
    assert out.read_text().count("\n") == 2


@pytest.mark.parametrize("argv", [
    ("fidelity", "--N", "7", "--h", "5", "--t", "41.2", "--samples", "0"),
    ("fidelity", "--N", "7", "--profile", "ballistic", "--c", "0",
     "--class", "omega1", "--t", "1"),
    ("threshold", "--N-list", "7", "--h-resolution", "0", "--t-max", "100"),
])
def test_explicit_zero_is_not_replaced_by_a_default(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("flag, value", [
    ("--h-cap", "inf"), ("--h-cap", "nan"), ("--h-resolution", "nan"),
    ("--h-resolution", "inf"), ("--h-resolution", "1e-320"),
])
def test_threshold_field_bounds_must_be_finite(capsys, flag, value):
    code, _, err = run(capsys, "threshold", "--N-list", "7", "--t-max", "100", flag, value)
    assert code == 1
    assert err.startswith("error:") and flag[2:].replace("-", "_") in err


@pytest.mark.filterwarnings("error")  # and no overflow warning on the way
@pytest.mark.parametrize("argv, named", [
    (("fidelity", "--N", "7", "--h", "1e308", "--t", "1", "--class", "omega1"), "field"),
    (("spectrum", "--N", "7", "--h", "1e308"), "field"),
    (("scan-field", "--N", "7", "--h-list", "1e308", "--t-max", "100"), "field"),
    (("spectrum", "--N", "7", "--profile", "ballistic", "--c", "1.7e308"), "prefactor"),
    (("fidelity", "--N", "7", "--h", "1e10", "--t", "1e300"), "t = "),
    (("amplitude", "--N", "7", "--h", "1e200", "--sources", "1", "--targets", "7",
      "--t", "1e200"), "t = "),
])
def test_overflowing_inputs_are_domain_errors(capsys, argv, named):
    """A finite field or time whose matrix entry or phase overflows is an
    error naming it, not a NaN printed with exit code 0."""
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "nan" not in out.lower()
    assert err.startswith("error:") and named in err


def _readme_usage():
    """The commands of README's usage block, the one that opens with
    `spinbus spectrum`, as argv lists, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = next(b for b in re.findall(r"```sh\n(.*?)```", text, re.S)
                 if re.search(r"^spinbus spectrum ", b, re.M))
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("spinbus ")]


def test_readme_usage_block_runs(tmp_path, capsys, monkeypatch):
    """Every command README advertises parses and succeeds, so the docs
    cannot show a flag the parser lacks; outputs land in tmp_path."""
    monkeypatch.chdir(tmp_path)
    commands = _readme_usage()
    assert commands
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (" ".join(argv), err)


def test_exit_code_bad_subcommand(capsys):
    code = parse_and_dispatch(["no-such-command"])
    capsys.readouterr()
    assert code == 2


def test_state_parsing_rejects_short_input(capsys):
    code, _, err = run(capsys, "rdm", "--N", "7", "--h", "5",
                       "--state", "1,0,0", "--t", "1")
    assert code == 2
    assert "eight" in err


_OMEGA1_SCAN = ("--N", "7", "--class", "omega1", "--t-max", "100")


@pytest.mark.parametrize("argv", [
    # prefixes of declared flags
    ("threshold", "--N-li", "7", "--t-max", "100", "--h-cap", "0.5"),
    ("fidelity", "--N", "7", "--h", "5", "--t", "3", "--samp", "100"),
    # deleted flags
    ("threshold", "--N-list", "7", "--t-max", "100", "--h-cap", "0.5", "--grid", "0.1"),
    ("scan-field", *_OMEGA1_SCAN, "--h-list", "0", "--grid", "0.1"),
    ("scan-field", *_OMEGA1_SCAN, "--h-min", "0", "--h-max", "5", "--h-step", "5"),
    ("rdm", "--N", "7", "--state", "2,0,0,0,0,0,0,0", "--t", "3", "--normalize-state"),
    ("fidelity", "--N", "7", "--h", "5", "--t", "3", "--class", "omega1", "--phase-opt"),
    ("fidelity", "--N", "7", "--h", "5", "--t", "3", "--phase-opt", "--samples", "100"),
    ("fidelity", "--N", "7", "--h", "20", "--t", "4000", "--class", "general", "--phase-opt"),
])
def test_undeclared_flags_are_rejected_by_the_parser(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ("scan-field", *_OMEGA1_SCAN, "--h-list", "1,,2"),
    ("scan-field", *_OMEGA1_SCAN, "--h-list", "2,"),
    ("scan-field", *_OMEGA1_SCAN, "--h-list", ""),
    ("threshold", "--N-list", "7,,8", "--t-max", "100", "--h-cap", "0.5"),
    ("threshold", "--N-list", ",7", "--t-max", "100", "--h-cap", "0.5"),
    ("reproduce", "--figure", "5", "--N-list", "7, ", "--t-max", "100"),
])
def test_empty_list_items_are_usage_errors(capsys, argv):
    """An empty item is a mistake in the list, not a value to leave out."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and "empty item" in err


@pytest.mark.parametrize("command, key", [
    ("scan-field", "grid"), ("scan-field", "h_min"),
    ("scan-field", "h_max"), ("scan-field", "h_step"),
])
def test_manifests_setting_deleted_options_are_usage_errors(tmp_path, capsys, command, key):
    params = {"N": 7, "state_class": "omega1", "t_max": 100, key: 1.0}
    if command == "scan-field":
        params["h_list"] = [0.0]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(params))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and repr(key) in err


def test_a_manifest_setting_phase_opt_is_a_usage_error(tmp_path, capsys):
    """A config that asks for the retired phase-optimized average is refused
    by name, not answered with the plain general average."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 7, "n": 2, "h": 20, "state_class": "general",
                               "t": 4000, "phase_opt": True}))
    code, out, err = run(capsys, "fidelity", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and "'phase_opt'" in err


def test_reproduce_builds_no_parser_after_the_first_call(capsys, monkeypatch):
    calls = [("reproduce", "--figure", "4a", "--h-list", "0", "--t-max", "100"),
             ("reproduce", "--figure", "5", "--N-list", "7", "--t-max", "100",
              "--h-cap", "0.5")]
    for argv in calls:
        assert run(capsys, *argv)[0] == 0
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    for argv in calls:
        assert run(capsys, *argv)[0] == 0
    assert built == []


def test_reproduce_carries_no_state_between_calls(capsys):
    """The shared parser leaves nothing behind: the same argv gives the same bytes."""
    argv = ("reproduce", "--figure", "4a", "--h-list", "0,5", "--t-max", "300")
    code, first, err = run(capsys, *argv)
    assert code == 0, err
    # in between, set options that argv leaves at their defaults
    between = [
        ("reproduce", "--figure", "4b", "--N", "9", "--n", "1", "--h-list", "3",
         "--t-max", "200", "--threads", "2", "--seed", "4", "--profile", "engineered"),
        ("reproduce", "--figure", "5", "--N-list", "8", "--t-max", "100", "--h-cap", "0.5",
         "--target", "0.1", "--seed", "5"),
        ("scan-field", "--N", "8", "--n", "1", "--class", "omega2", "--h-list", "2",
         "--t-max", "100", "--seed", "9"),
        ("threshold", "--N-list", "9", "--t-max", "100", "--h-cap", "0.5",
         "--profile", "ballistic", "--c", "0.5"),
    ]
    for other in between:
        code, _, err = run(capsys, *other)
        assert code == 0, err
    code, second, err = run(capsys, *argv)
    assert code == 0, err
    assert second == first


_SCAN_FIELD = ("scan-field", "--class", "omega1", "--t-max", "100")


@pytest.mark.parametrize("argv, config", [
    ((*_SCAN_FIELD, "--h-list", "0"), {"N": 7.9}),
    ((*_SCAN_FIELD, "--N", "7", "--h-list", "5"), {"n": 2.6}),
    ((*_SCAN_FIELD, "--N", "7", "--h-list", "5"), {"n": True}),
    ((*_SCAN_FIELD, "--N", "7", "--h-list", "0"), {"seed": 3.9}),
    ((*_SCAN_FIELD, "--N", "7", "--h-list", "0"), {"seed": True}),
    (("threshold", "--t-max", "100", "--h-cap", "0.5"), {"N_list": [7.9]}),
    # without --t-max each length picks its default window first
    (("threshold", "--class", "general", "--h-cap", "0.5"), {"N_list": ["7"]}),
    (("reproduce", "--figure", "5", "--t-max", "100", "--h-cap", "0.5"), {"N_list": [7.9]}),
    (("fidelity", "--N", "7", "--h", "5", "--t", "3", "--samples", "100"), {"seed": 2.5}),
    (("verify",), {"seed": 2.5}),
    (("amplitude", "--N", "7", "--t", "3"), {"sources": [1, 2], "targets": [6, 7.0]}),
    (("amplitude", "--N", "7", "--t", "3"), {"sources": [1.5], "targets": [7]}),
])
def test_whole_numbers_from_a_config_are_not_truncated(tmp_path, capsys, argv, config):
    # the integer flags parse only integers, so 7.9 or true comes from a config
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "must be an integer" in err


_SCAN_7 = ("scan-field", "--N", "7", "--n", "2", "--class", "omega1")
_THRESHOLD_7 = ("threshold", "--N-list", "7", "--t-max", "100", "--h-cap", "0.5")


@pytest.mark.parametrize("argv, config", [
    ((*_SCAN_7, "--h-list", "5"), {"t_max": True}),
    (("spectrum", "--N", "7", "--n", "2"), {"h": True}),
    (("fidelity", "--N", "7", "--n", "2", "--class", "omega1", "--t", "3"), {"h": "5"}),
    (("scan-field", "--N", "7", "--profile", "ballistic", "--t-max", "100", "--h-list", "0"),
     {"c": True}),
    (("scan-field", "--N", "7", "--class", "omega1", "--t-max", "100"),
     {"h_list": [True, False]}),
    (("scan-field", "--N", "7", "--class", "omega1", "--t-max", "100"), {"h_list": ["5"]}),
    (("fidelity", "--N", "7", "--h", "5"), {"t": True}),
    (("amplitude", "--N", "7", "--sources", "1", "--targets", "7"), {"t": "3"}),
    (("rdm", "--N", "7", "--t", "3"), {"state": [True, 0, 0, 0, 0, 0, 0, 0]}),
    (_THRESHOLD_7, {"target": True}),
    (("threshold", "--N-list", "7", "--t-max", "100"), {"h_cap": True}),
    (_THRESHOLD_7, {"h_resolution": True}),
])
def test_reals_from_a_config_must_be_numbers(tmp_path, capsys, argv, config):
    # the real flags parse only numbers, so true or "5" comes from a config
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (1, "")
    key = next(iter(config))
    assert err.startswith("error:") and f"{key} must be a real number" in err


def test_integer_reals_from_a_config_are_numbers(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_max": 100, "h_list": [0, 5]}))
    argv = ("scan-field", "--N", "7", "--class", "omega1")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 0, err
    assert out == run(capsys, *argv, "--t-max", "100.0", "--h-list", "0.0,5.0")[1]
