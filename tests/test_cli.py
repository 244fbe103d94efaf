import argparse
import hashlib
import os

import numpy as np
import pytest

from conftest import ZERO_BRANCH_CASES, assert_bitwise_equal
from rfladder import __version__, cli, fitting, geometry, netlist, sinum, touchstone
from rfladder.network import SParameterTrace, SweepGrid


@pytest.fixture
def geometry_file(tmp_path):
    path = tmp_path / "antenna.geo"
    path.write_text(geometry.serialize_geometry(geometry.canonical_geometry(),
                                                geometry.canonical_cavities()))
    return path


def run(args):
    return cli.main([str(a) for a in args])


def test_microstrip_command(capsys):
    assert run(["microstrip", "--width", "62e-3", "--height", "1.7e-3", "--er", "4.4"]) == 0
    out = capsys.readouterr().out
    assert "eps_eff = 4.1746" in out
    assert "z0_ohm = 4.5798" in out
    assert "branch = wide" in out


def test_microstrip_prints_integral_values_without_a_fraction(capsys):
    assert run(["microstrip", "--width", "2e-3", "--height", "1e-3", "--er", "4.4"]) == 0
    assert "width_to_height = 2\n" in capsys.readouterr().out


def test_version_and_digest_logging(tmp_path, geometry_file, capsys):
    out_csv = tmp_path / "elements.csv"
    assert run(["extract", "--geometry", geometry_file, "--out", out_csv]) == 0
    err = capsys.readouterr().err
    assert "rfladder 0.1.0" in err
    assert f"input {geometry_file} sha256=" in err


def test_extract_defaults_to_canonical(tmp_path, geometry_file):
    from_file = tmp_path / "a.csv"
    builtin = tmp_path / "b.csv"
    assert run(["extract", "--geometry", geometry_file, "--out", from_file]) == 0
    assert run(["extract", "--out", builtin]) == 0
    assert from_file.read_text() == builtin.read_text()


def test_pipeline_extract_build_simulate_bandwidth(tmp_path, geometry_file, capsys):
    elements_csv = tmp_path / "elements.csv"
    ladder_net = tmp_path / "ladder.net"
    sim_s1p = tmp_path / "sim.s1p"
    sim_csv = tmp_path / "sim.csv"

    assert run(["extract", "--geometry", geometry_file, "--frequency", "2.5e9",
                "--out", elements_csv]) == 0
    assert run(["build", "--elements", elements_csv, "--ports", "50,4.5",
                "--out", ladder_net]) == 0
    ladder = netlist.parse(ladder_net.read_text())
    assert len(ladder.sections) == 6
    assert ladder.sections[0].topology == "tline"
    assert ladder.input_port_impedance == 50.0
    assert ladder.output_port_impedance == 4.5

    assert run(["simulate", "--netlist", ladder_net, "--fstart", "0.1e9",
                "--fstop", "6e9", "--points", "1201", "--out", sim_s1p,
                "--csv", sim_csv]) == 0
    trace = touchstone.read_touchstone(sim_s1p.read_text())
    assert len(trace) == 1201
    assert trace.reference_impedances == (50.0, 4.5)
    assert sim_csv.read_text().splitlines()[0] == touchstone.CSV_HEADER

    capsys.readouterr()
    bands_csv = tmp_path / "bands.csv"
    code = run(["bandwidth", "--input", sim_s1p, "--threshold", "-10",
                "--csv", bands_csv])
    out = capsys.readouterr().out
    assert code == 0
    assert "bands = 1" in out
    assert "mismatch_efficiency_percent" in out
    assert bands_csv.read_text().splitlines()[0] == "band,f_low_hz,f_high_hz"


def test_simulate_s2p_output(tmp_path, geometry_file):
    elements_csv = tmp_path / "elements.csv"
    ladder_net = tmp_path / "ladder.net"
    sim_s2p = tmp_path / "sim.s2p"
    run(["extract", "--geometry", geometry_file, "--out", elements_csv])
    run(["build", "--elements", elements_csv, "--out", ladder_net])
    assert run(["simulate", "--netlist", ladder_net, "--points", "31",
                "--out", sim_s2p]) == 0
    trace = touchstone.read_touchstone(sim_s2p.read_text())
    assert trace.s21 is not None and trace.s22 is not None


@pytest.mark.parametrize("fmt", ["MA", "DB"])
def test_simulate_alternate_formats(tmp_path, fmt):
    net_path = tmp_path / "step.net"
    net_path.write_text("port in z0=50\nport out z0=4.5\n")
    out = tmp_path / "step.s1p"
    assert run(["simulate", "--netlist", net_path, "--points", "11",
                "--format", fmt, "--out", out]) == 0
    trace = touchstone.read_touchstone(out.read_text())
    assert abs(trace.s11[0] - (-0.834862385321)) < 1e-9


def test_bandwidth_no_band_exits_4(tmp_path, capsys):
    # ports-only step netlist reflects ~-1.6 dB everywhere: no -10 dB band
    net_path = tmp_path / "step.net"
    net_path.write_text("port in z0=50\nport out z0=4.5\n")
    sim = tmp_path / "step.s1p"
    assert run(["simulate", "--netlist", net_path, "--points", "51", "--out", sim]) == 0
    capsys.readouterr()
    assert run(["bandwidth", "--input", sim, "--threshold", "-10"]) == 4
    assert "bands = 0" in capsys.readouterr().out


def test_compare_command(tmp_path, capsys):
    freqs = np.linspace(1e9, 4e9, 21)
    a = SParameterTrace(freqs, np.full(21, 10 ** (-15 / 20), dtype=complex))
    b = SParameterTrace(freqs, np.full(21, 10 ** (-14 / 20), dtype=complex))
    pa, pb = tmp_path / "a.s1p", tmp_path / "b.s1p"
    pa.write_text(touchstone.write_touchstone(a))
    pb.write_text(touchstone.write_touchstone(b))
    assert run(["compare", "--a", pa, "--b", pb, "--threshold", "-10"]) == 0
    out = capsys.readouterr().out
    assert "band_agreement_percent = 100" in out
    assert "mean_abs_db_deviation = 1" in out
    assert "common_grid_points = 21" in out


def test_fit_command(tmp_path, capsys):
    truth = "port in z0=50\nport out z0=4.5\nsection s1 topology=series_rl_shunt_c R=5 L=3n C=1p\n"
    start = "port in z0=50\nport out z0=4.5\nsection s1 topology=series_rl_shunt_c R=5 L=3.9n C=1.3p\n"
    truth_net = tmp_path / "truth.net"
    start_net = tmp_path / "start.net"
    target = tmp_path / "target.s1p"
    fitted = tmp_path / "fitted.net"
    truth_net.write_text(truth)
    start_net.write_text(start)
    assert run(["simulate", "--netlist", truth_net, "--fstart", "0.5e9",
                "--fstop", "6e9", "--points", "201", "--out", target]) == 0
    capsys.readouterr()
    assert run(["fit", "--netlist", start_net, "--target", target,
                "--vary", "s1.L,s1.C", "--max-iter", "400", "--seed", "1",
                "--out", fitted]) == 0
    out = capsys.readouterr().out
    assert "final_cost = " in out
    result = netlist.parse(fitted.read_text())
    assert result.section("s1").params["L"] == pytest.approx(3e-9, rel=0.05)
    assert result.section("s1").params["C"] == pytest.approx(1e-12, rel=0.05)


def test_fit_explicit_grid_scores_on_that_grid(tmp_path, capsys):
    net = tmp_path / "n.net"
    net.write_text("port in z0=50\nport out z0=4.5\n"
                   "section s1 topology=series_rl_shunt_c R=5 L=3n C=1p\n")
    target = tmp_path / "t.s1p"
    assert run(["simulate", "--netlist", net, "--fstart", "0.5e9", "--fstop", "6e9",
                "--points", "201", "--format", "DB", "--out", target]) == 0
    start = tmp_path / "start.net"
    start.write_text(net.read_text().replace("L=3n", "L=3.9n"))
    capsys.readouterr()
    assert run(["fit", "--netlist", start, "--target", target, "--vary", "s1.L",
                "--max-iter", "0", "--fstart", "1e9", "--fstop", "3e9", "--points", "41",
                "--out", tmp_path / "o.net"]) == 0
    expected = fitting.cost(netlist.parse(start.read_text()),
                            touchstone.read_touchstone(target.read_text()),
                            SweepGrid(1e9, 3e9, 41))
    assert f"initial_cost = {sinum.format_bare(expected)}\n" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["antenna.geo", "ladder.net", "trace.s1p"])
def test_digest_is_of_the_file_bytes(tmp_path, geometry_file, capsys, name):
    texts = {
        "antenna.geo": geometry_file.read_text(),
        "ladder.net": "port in z0=50\nport out z0=4.5\n",
        "trace.s1p": "# Hz S RI R 50\n1e9 0.1 0\n2e9 0.2 0\n",
    }
    path = tmp_path / name
    path.write_bytes(texts[name].replace("\n", "\r\n").encode())
    command = {
        "antenna.geo": ["extract", "--geometry", path, "--out", tmp_path / "e.csv"],
        "ladder.net": ["simulate", "--netlist", path, "--points", "11",
                       "--out", tmp_path / "x.s1p"],
        "trace.s1p": ["bandwidth", "--input", path, "--threshold", "-3"],
    }[name]
    assert run(command) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert f"input {path} sha256={digest}\n" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["trace.s1p", "ladder.net"])
def test_byte_order_mark_is_accepted(tmp_path, capsys, name):
    text = {
        "trace.s1p": "# Hz S RI R 50\n1e9 0.1 0\n2e9 0.2 0\n",
        "ladder.net": "port in z0=50\nport out z0=4.5\n"
                      "section s1 topology=series_rl_shunt_c R=5 L=3n C=1p\n",
    }[name]
    outputs = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        directory = tmp_path / ("bom" if prefix else "plain")
        directory.mkdir()
        path = directory / name
        path.write_bytes(prefix + text.encode())
        if name == "trace.s1p":
            assert run(["bandwidth", "--input", path, "--threshold", "-3"]) == 0
            written = b""
        else:
            out = directory / "x.s2p"
            assert run(["simulate", "--netlist", path, "--points", "21", "--out", out]) == 0
            written = out.read_bytes()
        captured = capsys.readouterr()
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert f"input {path} sha256={digest}\n" in captured.err
        outputs.append((captured.out, written))
    assert outputs[0] == outputs[1]


def test_byte_order_mark_before_non_utf8_bytes_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.s1p"
    bad.write_bytes(b"\xef\xbb\xbf# Hz S RI R 50\n1e9 0.1 0\xff\n")
    assert run(["bandwidth", "--input", bad]) == 2
    assert f"error: cannot read {bad}: " in capsys.readouterr().err


def test_input_errors_exit_2(tmp_path, capsys):
    assert run(["extract", "--geometry", tmp_path / "missing.geo",
                "--out", tmp_path / "x.csv"]) == 2
    assert run(["extract", "--out", tmp_path / "no" / "such" / "dir" / "x.csv"]) == 2
    bad_net = tmp_path / "bad.net"
    bad_net.write_text("port in z0=50\nwhat\n")
    assert run(["simulate", "--netlist", bad_net, "--out", tmp_path / "x.s1p"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_non_utf8_input_exits_2_naming_the_path(tmp_path, capsys):
    utf16 = tmp_path / "utf16.net"
    utf16.write_bytes("port in z0=50\n".encode("utf-16"))
    assert run(["simulate", "--netlist", utf16, "--out", tmp_path / "x.s1p"]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot read {utf16}: " in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["utf16.net"]


def test_output_path_that_is_a_directory_exits_2_naming_the_path(tmp_path, capsys):
    directory = tmp_path / "out"
    directory.mkdir()
    assert run(["extract", "--out", directory]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {directory}: " in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert not list(directory.iterdir())


def test_numerical_errors_exit_3(tmp_path, capsys):
    # total reflection with threshold 0 drives the VSWR out of its domain
    full = tmp_path / "full.s1p"
    full.write_text("# Hz S RI R 50\n1e9 1 0\n2e9 1 0\n")
    assert run(["bandwidth", "--input", full, "--threshold", "0"]) == 3
    assert "numerical error:" in capsys.readouterr().err


def test_bandwidth_threshold_exact_sample_exits_0(tmp_path, capsys):
    exact = tmp_path / "exact.s1p"
    exact.write_text(
        "# Hz S RI R 50\n1000000000 0.31622776601683794 0\n"
        "4900000000 0.917875900218441 0\n9000000000 0.7943282347242815 0\n"
    )
    assert run(["bandwidth", "--input", exact, "--threshold", "-10"]) == 0
    out = capsys.readouterr().out
    assert "band0_low_hz = 1000000000" in out
    assert "band0_high_hz = 1000000000" in out


@pytest.mark.parametrize(
    "args",
    [
        ["extract", "--frequency", "1e200", "--out", "x.csv"],
        ["extract", "--geometry", "cavity 1 W=1e300", "--out", "x.csv"],
        ["extract", "--geometry", "cavity 2 d=1e200", "--out", "x.csv"],
        ["microstrip", "--width", "1e-300", "--height", "1e300", "--er", "4.4"],
        ["microstrip", "--width", "1e300", "--height", "1e-300", "--er", "4.4"],
    ],
)
def test_out_of_range_extraction_exits_3(tmp_path, capsys, args):
    if "--geometry" in args:
        k = args.index("--geometry") + 1
        path = tmp_path / "big.geo"
        path.write_text(geometry.serialize_geometry(
            geometry.canonical_geometry(), geometry.canonical_cavities()) + args[k] + "\n")
        args[k] = path
    assert run([tmp_path / a if str(a).startswith("x.") else a for a in args]) == 3
    err = capsys.readouterr().err
    assert "numerical error:" in err
    assert not list(tmp_path.glob("x.*"))


def test_thick_substrate_extraction_names_cavity_and_height(tmp_path, geometry_file, capsys):
    thick = tmp_path / "thick.geo"
    thick.write_text(geometry_file.read_text().replace("h = 1.7 mm", "h = 100 mm"))
    assert run(["extract", "--geometry", thick, "--out", tmp_path / "e.csv"]) == 2
    err = capsys.readouterr().err
    assert "error: cavity 1: inductance is not positive at substrate height h = 0.1 m" in err
    assert "ind_eq needs h < (W+d)^2/W * ((W+d)/d)^(d/W)" in err


def test_fit_eps_eff_keeps_its_low_bound_in_domain(tmp_path, capsys, monkeypatch):
    elements_csv, ladder, target = tmp_path / "e.csv", tmp_path / "l.net", tmp_path / "t.s2p"
    assert run(["extract", "--out", elements_csv]) == 0
    assert run(["build", "--elements", elements_csv, "--out", ladder]) == 0
    assert run(["simulate", "--netlist", ladder, "--points", "201", "--out", target]) == 0
    text = ladder.read_text()
    assert "eps_eff=3.32599074017086" in text
    ladder.write_text(text.replace("eps_eff=3.32599074017086", "eps_eff=1.3"))
    problems, fit = [], fitting.fit
    monkeypatch.setattr(fitting, "fit", lambda problem: problems.append(problem) or fit(problem))
    # the default --bounds-factor 10 would put the low bound at 0.13
    assert run(["fit", "--netlist", ladder, "--target", target, "--vary", "c0.eps_eff",
                "--restarts", "2", "--out", tmp_path / "f.net"]) == 0
    assert [problem.bounds for problem in problems] == [((1.0, 13.0),)]
    fitted = netlist.parse((tmp_path / "f.net").read_text()).section("c0").params["eps_eff"]
    assert 1.0 <= fitted <= 13.0


def test_microstrip_zero_height_exits_2(capsys):
    assert run(["microstrip", "--width", "1e-3", "--height", "0", "--er", "4.4"]) == 2
    assert "error: height must be finite and > 0\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option", [["--bounds-factor", "0"], ["--bounds-factor", "1"], ["--restarts", "-1"],
               ["--max-iter", "-1"], ["--seed", "-1"], ["--tol", "-1"]],
)
def test_fit_rejects_out_of_range_options(tmp_path, capsys, option):
    net = tmp_path / "n.net"
    net.write_text("port in z0=50\nport out z0=4.5\nsection s1 topology=series_rl_shunt_c L=3n C=1p\n")
    target = tmp_path / "t.s1p"
    target.write_text("# Hz S RI R 50\n1e9 0.5 0\n2e9 0.5 0\n")
    out = tmp_path / "o.net"
    assert run(["fit", "--netlist", net, "--target", target, "--vary", "s1.L",
                *option, "--out", out]) == 2
    err = capsys.readouterr().err
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_fit_rejects_a_repeated_free_parameter(tmp_path, capsys):
    net = tmp_path / "n.net"
    net.write_text("port in z0=50\nport out z0=4.5\nsection s1 topology=series_rl_shunt_c L=3n C=1p\n")
    target = tmp_path / "t.s1p"
    target.write_text("# Hz S RI R 50\n1e9 0.5 0\n2e9 0.5 0\n")
    out = tmp_path / "o.net"
    assert run(["fit", "--netlist", net, "--target", target, "--vary", "s1.C,s1.C",
                "--out", out]) == 2
    assert "error: free parameter s1.C is given more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text,fstart,fstop,points", ZERO_BRANCH_CASES)
def test_simulate_a_zero_branch_exits_3_with_no_warning(tmp_path, capsys, text, fstart, fstop,
                                                        points):
    net = tmp_path / "zero.net"
    net.write_text(text)
    out = tmp_path / "zero.s1p"
    assert run(["simulate", "--netlist", net, "--fstart", fstart, "--fstop", fstop,
                "--points", points, "--out", out]) == 3
    digest = hashlib.sha256(net.read_bytes()).hexdigest()
    assert capsys.readouterr().err == (
        f"rfladder {__version__}\ninput {net} sha256={digest}\nnumerical error: S-parameters"
        " are not finite; a section value overflows or a branch impedance or admittance is zero\n"
    )
    assert not out.exists()


def test_simulate_overflow_exits_3_without_traceback(tmp_path, capsys):
    net = tmp_path / "huge.net"
    net.write_text("port in z0=50\nport out z0=50\nsection s topology=series_rlc L=1e300\n")
    out = tmp_path / "huge.s1p"
    assert run(["simulate", "--netlist", net, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "numerical error:" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "fit"])
def test_a_point_count_beyond_memory_exits_2_naming_it(tmp_path, capsys, command):
    # numpy refuses 10**13 float64 samples (80 TB) before allocating any of them
    net = tmp_path / "n.net"
    net.write_text("port in z0=50\nport out z0=4.5\nsection s1 topology=series_rl_shunt_c L=3n C=1p\n")
    target = tmp_path / "t.s1p"
    target.write_text("# Hz S RI R 50\n1e9 0.5 0\n2e9 0.5 0\n")
    out = tmp_path / ("o.s2p" if command == "simulate" else "o.net")
    extra = ["--vary", "s1.L", "--target", target] if command == "fit" else []
    assert run([command, "--netlist", net, *extra, "--fstart", "1e9", "--fstop", "2e9",
                "--points", str(10**13), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.endswith("\nerror: 10000000000000 points do not fit in memory\n")
    assert "Traceback" not in err
    assert not out.exists()


def test_simulate_an_overflowing_line_exits_3_with_no_warning(tmp_path, capsys):
    net = tmp_path / "long.net"
    net.write_text("port in z0=50\nport out z0=4.5\n"
                   "section c0 topology=tline z0=50.7 eps_eff=3.3 len=1e300\n")
    out = tmp_path / "long.s1p"
    assert run(["simulate", "--netlist", net, "--out", out]) == 3
    digest = hashlib.sha256(net.read_bytes()).hexdigest()
    assert capsys.readouterr().err == (
        f"rfladder {__version__}\ninput {net} sha256={digest}\nnumerical error: S-parameters"
        " are not finite; a section value overflows or a branch impedance or admittance is zero\n"
    )
    assert not out.exists()


# finite RI parts whose magnitude overflows: the reader keeps the row, the reports refuse it
OVERFLOWING_RI = "# Hz S RI R 50\n1e9 0.1 0\n1.2e9 1.3e308 1.3e308\n2e9 0.5 0\n"


@pytest.mark.parametrize("command", ["bandwidth", "compare_a", "compare_b", "fit"])
def test_a_trace_whose_s11_db_overflows_exits_2_naming_its_frequency(tmp_path, capsys,
                                                                       command):
    bad, good = tmp_path / "bad.s1p", tmp_path / "good.s1p"
    bad.write_text(OVERFLOWING_RI)
    good.write_text("# Hz S RI R 50\n1e9 0.1 0\n1.2e9 0.1 0\n2e9 0.5 0\n")
    net = tmp_path / "n.net"
    net.write_text("port in z0=50\nport out z0=4.5\nsection s1 topology=series_rl_shunt_c L=3n C=1p\n")
    out = tmp_path / "o.net"
    argv = {
        "bandwidth": ["bandwidth", "--input", bad],
        "compare_a": ["compare", "--a", bad, "--b", good],
        "compare_b": ["compare", "--a", good, "--b", bad],
        "fit": ["fit", "--netlist", net, "--target", bad, "--vary", "s1.L", "--out", out],
    }[command]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.endswith("\nerror: s11 dB is not finite at 1200000000.0 Hz\n")
    assert all(line.startswith(("rfladder ", "input ", "error: ")) for line in err.splitlines())
    assert not out.exists()


def test_bandwidth_non_finite_sample_exits_2(tmp_path, capsys):
    bad = tmp_path / "nan.s1p"
    bad.write_text("# Hz S RI R 50\n1e9 nan 0\n2e9 0.1 0\n")
    assert run(["bandwidth", "--input", bad]) == 2
    assert "error: line 2:" in capsys.readouterr().err


def test_build_non_finite_element_exits_2_with_line(tmp_path, capsys):
    elements_csv = tmp_path / "elements.csv"
    assert run(["extract", "--out", elements_csv]) == 0
    lines = elements_csv.read_text().splitlines()
    fields = lines[2].split(",")
    fields[1] = "nan"  # W_m of cavity 1, a resonator row
    lines[2] = ",".join(fields)
    elements_csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "ladder.net"
    assert run(["build", "--elements", elements_csv, "--out", out]) == 2
    assert "error: line 3:" in capsys.readouterr().err
    assert not out.exists()


def test_build_two_cavities_without_inductance_exit_2_naming_them(tmp_path, capsys):
    elements_csv = tmp_path / "elements.csv"
    assert run(["extract", "--out", elements_csv]) == 0
    lines = elements_csv.read_text().splitlines()
    fields = lines[3].split(",")
    fields[5] = fields[6] = ""  # cavity 2 loses its L and R, as the feed cavity has none
    lines[3] = ",".join(fields)
    elements_csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "ladder.net"
    assert run(["build", "--elements", elements_csv, "--out", out]) == 2
    assert "error: cavities 0, 2 have no inductance" in capsys.readouterr().err
    assert not out.exists()


def test_fit_and_compare_reject_a_different_port_1_reference(tmp_path, capsys):
    ladder = "port out z0=4.5\nsection s1 topology=series_rl_shunt_c R=5 L=3n C=1p\n"
    paths = {}
    for z in (50, 75):
        net, trace = tmp_path / f"z{z}.net", tmp_path / f"z{z}.s1p"
        net.write_text(f"port in z0={z}\n" + ladder)
        assert run(["simulate", "--netlist", net, "--fstart", "0.5e9", "--fstop", "6e9",
                    "--points", "201", "--out", trace]) == 0
        assert f"# Hz S RI R {z}\n" in trace.read_text()
        paths[z] = net, trace
    capsys.readouterr()
    fitted = tmp_path / "fitted.net"
    assert run(["fit", "--netlist", paths[50][0], "--target", paths[75][1],
                "--vary", "s1.L", "--out", fitted]) == 2
    assert "reference 75.0 ohm differs from the netlist's input port 50.0 ohm" in (
        capsys.readouterr().err)
    assert not fitted.exists()
    assert run(["compare", "--a", paths[50][1], "--b", paths[75][1]]) == 2
    captured = capsys.readouterr()
    assert "error: port-1 references differ: 50.0 ohm and 75.0 ohm" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--netlist", "x.net", "--fstop", "inf", "--out", "x.s1p"],
        ["bandwidth", "--input", "x.s1p", "--threshold", "nan"],
        ["extract", "--frequency", "inf", "--out", "x.csv"],
        ["extract", "--frequency", "1e400", "--out", "x.csv"],
        ["microstrip", "--width", "-inf", "--height", "1e-3", "--er", "4.4"],
        ["build", "--elements", "x.csv", "--ports", "50,inf", "--out", "x.net"],
        ["build", "--elements", "x.csv", "--ports", "50", "--out", "x.net"],
    ],
)
def test_non_finite_option_values_exit_2(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        run([tmp_path / a if a.startswith("x.") else a for a in args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_output_files_follow_umask(tmp_path, geometry_file):
    out = tmp_path / "elements.csv"
    previous = os.umask(0o022)
    try:
        assert run(["extract", "--geometry", geometry_file, "--out", out]) == 0
    finally:
        os.umask(previous)
    assert out.stat().st_mode & 0o777 == 0o644


def test_vary_argument_validation(tmp_path):
    net = tmp_path / "n.net"
    net.write_text("port in z0=50\nport out z0=4.5\nsection s1 topology=series_rl_shunt_c L=3n C=1p\n")
    target = tmp_path / "t.s1p"
    target.write_text("# Hz S RI R 50\n1e9 0.5 0\n2e9 0.5 0\n")
    assert run(["fit", "--netlist", net, "--target", target, "--vary", "nodot",
                "--out", tmp_path / "o.net"]) == 2
    assert run(["fit", "--netlist", net, "--target", target, "--vary", "s1.R",
                "--out", tmp_path / "o.net"]) == 2  # R not present in the section
    assert run(["fit", "--netlist", net, "--target", target, "--vary", "s1.L",
                "--fstart", "1e9", "--out", tmp_path / "o.net"]) == 2  # lone --fstart


def test_atomic_write_replaces_existing(tmp_path, geometry_file):
    out = tmp_path / "elements.csv"
    out.write_text("stale")
    assert run(["extract", "--geometry", geometry_file, "--out", out]) == 0
    text = out.read_text()
    assert text.startswith("cavity,")
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".rfladder-")]
    assert leftovers == []


def test_a_write_failing_with_no_os_error_propagates_and_leaves_no_temp_file(tmp_path,
                                                                              monkeypatch):
    def interrupted(src, dst):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(RuntimeError, match="^interrupted$"):
        cli._write_output(str(tmp_path / "out.txt"), "text")
    assert list(tmp_path.iterdir()) == []


def test_outputs_byte_stable(tmp_path, geometry_file):
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    run(["extract", "--geometry", geometry_file, "--out", first])
    run(["extract", "--geometry", geometry_file, "--out", second])
    assert first.read_bytes() == second.read_bytes()


def test_a_call_sees_none_of_an_earlier_calls_options(tmp_path, capsys):
    net = tmp_path / "step.net"
    net.write_text("port in z0=50\nport out z0=4.5\n")
    sim, csv = tmp_path / "step.s1p", tmp_path / "step.csv"
    assert run(["simulate", "--netlist", net, "--points", "11", "--out", sim, "--csv", csv]) == 0
    csv.unlink()
    assert run(["simulate", "--netlist", net, "--points", "11", "--out", sim]) == 0
    assert not csv.exists()
    capsys.readouterr()
    assert run(["bandwidth", "--input", sim, "--threshold", "-6"]) == 4
    assert "threshold_db = -6\n" in capsys.readouterr().out
    assert run(["bandwidth", "--input", sim]) == 4
    assert "threshold_db = -10\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv", [["bandwidth"], ["bandwidth", "--input", "x.s1p", "--threshold", "nan"], ["nosuch"]]
)
def test_usage_errors_match_a_freshly_built_parser(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.build_parser.__wrapped__().parse_args(argv)
    assert err.value.code == 2
    fresh = capsys.readouterr()
    for _ in range(2):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert capsys.readouterr() == fresh


def test_version_option_prints_the_tool_version(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as err:
            cli.main(["--version"])
        assert err.value.code == 0
        assert capsys.readouterr().out == f"rfladder {__version__}\n"


def test_parser_is_built_once_across_calls(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "rfladder":  # not the sub-parsers
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    for _ in range(3):
        assert run(["microstrip", "--width", "2e-3", "--height", "1e-3", "--er", "4.4"]) == 0
    with pytest.raises(SystemExit):
        cli.main(["--version"])
    assert len(built) == 1


def test_permittivity_at_most_1_exits_2_stating_the_rule(tmp_path, capsys):
    elements_csv = tmp_path / "e.csv"
    assert run(["extract", "--out", elements_csv]) == 0
    for argv in (["microstrip", "--width", "1", "--height", "1", "--er", "1"],
                 ["build", "--elements", elements_csv, "--er", "0.5", "--out", tmp_path / "l.net"]):
        capsys.readouterr()
        assert run(argv) == 2
        assert "error: relative_permittivity must be finite and > 1\n" in capsys.readouterr().err
    assert not (tmp_path / "l.net").exists()


def test_fit_on_a_one_sample_target_needs_an_explicit_grid(tmp_path, capsys):
    net = tmp_path / "n.net"
    net.write_text("port in z0=50\nport out z0=4.5\nsection s1 topology=series_rl_shunt_c L=3n C=1p\n")
    target = tmp_path / "t.s1p"
    target.write_text("# Hz S RI R 50\n2.4e9 0.1 0.2\n")
    argv = ["fit", "--netlist", net, "--target", target, "--vary", "s1.L",
            "--out", tmp_path / "o.net"]
    assert run(argv) == 2
    assert (f"error: target {target} has one sample; --fstart and --fstop are needed\n"
            in capsys.readouterr().err)
    assert run(argv + ["--fstart", "1e9", "--fstop", "3e9"]) == 0


BAND_AT_2GHZ = "# Hz S RI R 50\n1e9 0.5 0\n2e9 0.1 0\n3e9 0.5 0\n"
BAND_AT_3GHZ = "# Hz S RI R 50\n1e9 0.5 0\n2e9 0.5 0\n3e9 0.1 0\n"


@pytest.fixture
def parses(monkeypatch):
    """The texts that reach the Touchstone parser, with no trace held at the start."""
    monkeypatch.setattr(cli, "_TRACES", {})
    texts = []
    parse = touchstone.read_touchstone

    def counting(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(touchstone, "read_touchstone", counting)
    return texts


def test_the_same_bytes_at_two_paths_are_parsed_once(tmp_path, capsys, parses):
    a, b = tmp_path / "a.s1p", tmp_path / "b.s1p"
    a.write_text(BAND_AT_2GHZ)
    b.write_text(BAND_AT_2GHZ)
    assert run(["compare", "--a", a, "--b", b]) == 0
    assert parses == [BAND_AT_2GHZ]
    assert "band_agreement_percent = 100\n" in capsys.readouterr().out


def test_a_file_rewritten_with_new_bytes_is_parsed_again(tmp_path, capsys, parses):
    path = tmp_path / "sim.s1p"
    path.write_text(BAND_AT_2GHZ)
    assert run(["bandwidth", "--input", path]) == 0
    assert "band0_high_hz = 3000000000" not in capsys.readouterr().out
    path.write_text(BAND_AT_3GHZ)
    assert run(["bandwidth", "--input", path]) == 0
    assert "band0_high_hz = 3000000000\n" in capsys.readouterr().out
    assert parses == [BAND_AT_2GHZ, BAND_AT_3GHZ]


def test_a_file_that_fails_to_parse_fails_alike_on_every_read(tmp_path, capsys, parses):
    bad = tmp_path / "nan.s1p"
    bad.write_text("# Hz S RI R 50\n1e9 nan 0\n2e9 0.1 0\n")
    errors = []
    for _ in range(3):
        assert run(["bandwidth", "--input", bad]) == 2
        errors.append(capsys.readouterr().err)
    assert len(parses) == 3 and not cli._TRACES
    assert errors[0].endswith("error: line 2: non-finite field in '1e9 nan 0'\n")
    assert errors == errors[:1] * 3


def test_the_digest_is_printed_on_a_hit(tmp_path, capsys, parses):
    path = tmp_path / "sim.s1p"
    path.write_text(BAND_AT_2GHZ)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    for _ in range(2):
        assert run(["bandwidth", "--input", path]) == 0
        assert capsys.readouterr().err == f"rfladder {__version__}\ninput {path} sha256={digest}\n"
    assert len(parses) == 1


def test_the_last_two_traces_read_are_held(tmp_path, capsys, parses):
    paths = []
    for k, text in enumerate((BAND_AT_2GHZ, BAND_AT_3GHZ, BAND_AT_2GHZ.replace("0.5", "0.4"))):
        paths.append(tmp_path / f"{k}.s1p")
        paths[-1].write_text(text)
    first, second, third = paths
    for path in (first, second, first, third):  # the hit on `first` keeps it over `second`
        assert run(["bandwidth", "--input", path]) == 0
    assert len(parses) == 3
    assert list(cli._TRACES) == [
        hashlib.sha256(p.read_bytes()).hexdigest() for p in (first, third)
    ]
    assert run(["bandwidth", "--input", second]) == 0
    assert len(parses) == 4


def test_a_held_trace_refuses_writes(tmp_path, parses):
    path = tmp_path / "sim.s2p"
    freqs = np.linspace(1e9, 3e9, 5)
    s = np.full(5, 0.1 + 0.2j)
    path.write_text(touchstone.write_touchstone(SParameterTrace(freqs, s, s, s, s)))
    assert run(["bandwidth", "--input", path]) == 0
    (trace,) = cli._TRACES.values()
    for array in (trace.frequencies, trace.s11, trace.s21, trace.s12, trace.s22):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def _reads_of_a_simulated_target(tmp_path, command):
    """`simulate` a one-port target, then the argv of `command` reading it (and other.s1p)."""
    target = tmp_path / "t.s1p"
    truth = "port in z0=50\nport out z0=4.5\nsection s1 topology=series_rl_shunt_c R=5 L=3n C=1p\n"
    (tmp_path / "truth.net").write_text(truth)
    assert run(["simulate", "--netlist", tmp_path / "truth.net", "--fstart", "0.5e9",
                "--fstop", "6e9", "--points", "101", "--out", target]) == 0
    (tmp_path / "start.net").write_text(truth.replace("L=3n", "L=3.6n"))
    other = tmp_path / "other.s1p"
    other.write_text(BAND_AT_2GHZ)
    return {
        "bandwidth": ["bandwidth", "--input", target, "--csv", tmp_path / "out"],
        "compare": ["compare", "--a", target, "--b", other],
        "fit": ["fit", "--netlist", tmp_path / "start.net", "--target", target,
                "--vary", "s1.L", "--out", tmp_path / "out"],
    }[command]


def _runs(tmp_path, capsys, argv, times):
    """Each run's exit code, printed text and output file bytes."""
    outputs = []
    for _ in range(times):
        capsys.readouterr()
        code = run(argv)
        out = tmp_path / "out"
        outputs.append((code, capsys.readouterr(), out.read_bytes() if out.exists() else None))
    return outputs


@pytest.mark.parametrize("command", ["bandwidth", "compare", "fit"])
def test_a_hit_prints_what_a_miss_prints(tmp_path, capsys, parses, command):
    argv = _reads_of_a_simulated_target(tmp_path, command)
    cli._TRACES.clear()  # so the first run below parses the file `simulate` wrote
    outputs = _runs(tmp_path, capsys, argv, 2)
    assert len(parses) == (2 if command == "compare" else 1)
    assert outputs[0] == outputs[1]
    assert outputs[0][1].out


@pytest.mark.parametrize("command", ["bandwidth", "compare", "fit"])
def test_a_file_simulate_wrote_is_read_without_a_parse(tmp_path, capsys, parses, command):
    argv = _reads_of_a_simulated_target(tmp_path, command)
    held = _runs(tmp_path, capsys, argv, 1)
    assert parses == ([BAND_AT_2GHZ] if command == "compare" else [])
    cli._TRACES.clear()
    assert _runs(tmp_path, capsys, argv, 1) == held
    assert len(parses) == (3 if command == "compare" else 1)


@pytest.mark.parametrize("fmt", touchstone.VALUE_FORMATS)
@pytest.mark.parametrize("suffix", [".s1p", ".s2p"])
@pytest.mark.parametrize("z02", ["50", "4.5"])  # 4.5 writes the port-2 comment
def test_simulate_holds_the_trace_its_file_reads_back_as(tmp_path, parses, fmt, suffix, z02):
    net = tmp_path / "ladder.net"
    net.write_text(f"port in z0=50\nport out z0={z02}\n"
                   "section s1 topology=series_rl_shunt_c R=5 L=3n C=1p\n")
    out = tmp_path / f"sim{suffix}"
    assert run(["simulate", "--netlist", net, "--points", "301", "--out", out,
                "--format", fmt]) == 0
    ((digest, held),) = cli._TRACES.items()
    assert digest == hashlib.sha256(out.read_bytes()).hexdigest()
    parsed = touchstone.read_touchstone(out.read_text())
    assert held.reference_impedances == (50.0, float(z02))
    assert (held.s21 is not None) == (suffix == ".s2p")
    assert_bitwise_equal(held, parsed)


def test_simulate_holds_nothing_where_its_file_fails_to_read_back(tmp_path, capsys, monkeypatch,
                                                                    parses):
    freqs = np.array([1e9, 2e9])
    largest = np.finfo(float).max  # written as a dB value whose conversion overflows
    trace = SParameterTrace(freqs, np.array([0.5 + 0j, complex(largest, 0.0)]))
    monkeypatch.setattr(cli, "sweep", lambda ladder, grid: trace)
    net = tmp_path / "ladder.net"
    net.write_text("port in z0=50\nport out z0=50\n"
                   "section s1 topology=series_rl_shunt_c L=3n C=1p\n")
    out = tmp_path / "sim.s1p"
    assert run(["simulate", "--netlist", net, "--out", out, "--format", "DB"]) == 0
    assert not cli._TRACES
    capsys.readouterr()
    assert run(["bandwidth", "--input", out]) == 2
    assert capsys.readouterr().err.endswith(
        "error: line 3: value overflows or frequencies collide after unit or dB conversion\n"
    )
    assert len(parses) == 1 and not cli._TRACES
