import struct

import numpy as np
import pytest

import tot
from tot.errors import GridSizeError
from tot.fieldio import read_field_binary, write_field_binary, write_field_csv
from tot.trig import TrigPoly2D


def test_build_grid_spacing():
    g = tot.build_grid(8, 8)
    assert g.h1 == 0.125 and g.h2 == 0.125
    g = tot.build_grid(16, 32)
    assert g.h1 == 0.0625 and g.h2 == 0.03125


@pytest.mark.parametrize("n1,n2", [(7, 8), (8, 7), (6, 8), (8, 4)])
def test_build_grid_rejects_bad_sizes(n1, n2):
    with pytest.raises(GridSizeError, match="grid size must be even and"):
        tot.build_grid(n1, n2)


def test_derivative_single_modes():
    g = tot.build_grid(16, 16)
    x1, x2 = g.mesh()
    f = tot.field(g, np.cos(2 * np.pi * x1) + 0.0 * x2)
    d = tot.spectral_derivative(f, axis=1, order=1)
    assert np.max(np.abs(d.values + 2 * np.pi * np.sin(2 * np.pi * x1))) < 1e-12

    f2 = tot.field(g, np.cos(2 * np.pi * x2) + 0.0 * x1)
    d2 = tot.spectral_derivative(f2, axis=2, order=2)
    assert np.max(np.abs(d2.values + 4 * np.pi ** 2 * np.cos(2 * np.pi * x2))) < 1e-12

    const = tot.field(g, np.full(g.shape, 3.7))
    for axis in (1, 2):
        for order in (1, 2):
            d = tot.spectral_derivative(const, axis, order)
            assert np.max(np.abs(d.values)) < 1e-12


@pytest.mark.parametrize("k1,k2", [(k1, k2) for k1 in range(0, 8)
                                   for k2 in (0, 1, 3, 7)])
def test_derivative_exactness_below_nyquist(k1, k2):
    g = tot.build_grid(16, 16)
    x1, x2 = g.mesh()
    phase = 2 * np.pi * (k1 * x1 + k2 * x2)
    for values, dvalues in [
            (np.cos(phase), -2 * np.pi * k1 * np.sin(phase)),
            (np.sin(phase), 2 * np.pi * k1 * np.cos(phase))]:
        d = tot.spectral_derivative(tot.field(g, values + 0 * x1 * x2), 1, 1)
        assert np.max(np.abs(d.values - dvalues)) < 1e-11


def test_second_derivative_keeps_nyquist():
    g = tot.build_grid(16, 16)
    x1, x2 = g.mesh()
    # the Nyquist mode cos(pi*n*x) is invisible to order 1 and carried
    # with symbol -(pi n)^2 by order 2
    f = tot.field(g, np.cos(np.pi * g.n1 * x1) + 0.0 * x2)
    d1 = tot.spectral_derivative(f, 1, 1)
    assert np.max(np.abs(d1.values)) < 1e-10
    d2 = tot.spectral_derivative(f, 1, 2)
    expected = -(np.pi * g.n1) ** 2 * f.values
    assert np.max(np.abs(d2.values - expected)) < 1e-8


def test_integrate_mean_and_projection():
    g = tot.build_grid(32, 32)
    x1, x2 = g.mesh()
    f = tot.field(g, 1.0 + 0.3 * np.cos(2 * np.pi * x1) + 0.0 * x2)
    assert abs(tot.integrate_mean(f) - 1.0) < 1e-14

    f2 = tot.field(g, np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2))
    assert abs(tot.integrate_mean(f2)) < 1e-14

    proj = tot.project_zero_mean(tot.field(g, np.full(g.shape, 5.0)))
    assert proj.zero_mean
    assert np.max(np.abs(proj.values)) < 1e-14


def test_mean_annihilation_of_derivatives():
    rng = np.random.default_rng(0)
    g = tot.build_grid(32, 32)
    u = tot.field(g, rng.normal(size=g.shape))
    for axis in (1, 2):
        d = tot.spectral_derivative(u, axis, 1)
        assert abs(tot.integrate_mean(d)) < 1e-13


def test_mixed_derivatives_commute():
    from tests.conftest import band_limited
    rng = np.random.default_rng(1)
    g = tot.build_grid(32, 32)
    raw = band_limited(g, 6, rng)
    u = tot.field(g, raw / np.max(np.abs(raw)))
    d12 = tot.spectral_derivative(tot.spectral_derivative(u, 1, 1), 2, 1)
    d21 = tot.spectral_derivative(tot.spectral_derivative(u, 2, 1), 1, 1)
    assert np.max(np.abs(d12.values - d21.values)) < 1e-11


def test_eval_periodic_bicubic_and_analytic():
    g = tot.build_grid(32, 32)
    x1, x2 = g.mesh()
    values = np.cos(2 * np.pi * x1) + 0.0 * x2
    f_grid = tot.field(g, values)                      # bicubic path
    out = tot.eval_periodic(f_grid, [(0.25, 0.9)])
    assert abs(out[0]) < 1e-6

    poly = TrigPoly2D.from_modes([(1, 0, 1.0, 0.0)], const=0.0)
    f_exact = tot.field(g, values, closed_form=poly)   # analytic path
    out = tot.eval_periodic(f_exact, [(0.25, 0.9)])
    assert abs(out[0]) < 1e-15


def test_eval_periodic_wrap_is_exact():
    rng = np.random.default_rng(2)
    g = tot.build_grid(16, 16)
    f = tot.field(g, rng.normal(size=g.shape))
    base = [(0.25, 0.25), (0.625, 0.0625), (5 / 64, 15 / 64)]
    shifted = [(x1 + 2.0, x2 - 1.0) for x1, x2 in base]
    assert np.array_equal(tot.eval_periodic(f, base),
                          tot.eval_periodic(f, shifted))
    # the worked example: (1.25, -0.75) is the same point as (0.25, 0.25)
    assert (tot.eval_periodic(f, [(1.25, -0.75)])[0]
            == tot.eval_periodic(f, [(0.25, 0.25)])[0])


def test_eval_periodic_matches_closed_form():
    # sampled field interpolated bicubically against the generating function
    g = tot.build_grid(64, 64)
    x1, x2 = g.mesh()
    f = tot.field(g, 1.0 + 0.2 * np.cos(2 * np.pi * x2) + 0.0 * x1)
    out = tot.eval_periodic(f, [(0.1, 0.31)])
    exact = 1.0 + 0.2 * np.cos(2 * np.pi * 0.31)
    assert abs(out[0] - exact) < 1e-6


def test_binary_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    g = tot.build_grid(16, 32)
    f = tot.field(g, rng.normal(size=g.shape), zero_mean=False)
    path = tmp_path / "field.totf"
    write_field_binary(f, path)
    raw = path.read_bytes()
    assert raw[:4] == b"TOTF"
    back = read_field_binary(path)
    assert back.grid.shape == (16, 32)
    assert np.array_equal(back.values, f.values)
    assert back.zero_mean is False

    zf = tot.project_zero_mean(f)
    write_field_binary(zf, path)
    assert read_field_binary(path).zero_mean is True


@pytest.mark.parametrize("n", [4294967295, 4294967294])
def test_binary_rejects_oversize_header(tmp_path, n):
    path = tmp_path / "huge.totf"
    path.write_bytes(struct.pack("<4sIII", b"TOTF", n, n, 0) + bytes(64))
    with pytest.raises(ValueError, match="huge.totf"):
        read_field_binary(path)


@pytest.mark.parametrize("extra", [-8, 8])
def test_binary_rejects_payload_size_mismatch(tmp_path, extra):
    g = tot.build_grid(8, 8)
    path = tmp_path / "field.totf"
    write_field_binary(tot.zero_field(g), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:extra] if extra < 0 else raw + bytes(extra))
    with pytest.raises(ValueError, match="field.totf"):
        read_field_binary(path)


def test_csv_export_layout(tmp_path):
    g = tot.build_grid(8, 8)
    values = np.arange(64, dtype=float).reshape(8, 8)
    path = tmp_path / "field.csv"
    write_field_csv(tot.field(g, values), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,value"
    assert len(lines) == 65
    # row-major: second row is node (0, 1/8)
    x1, x2, value = lines[2].split(",")
    assert float(x1) == 0.0 and float(x2) == 0.125 and float(value) == 1.0
    # 17 significant digits survive a parse round trip
    assert float(lines[1].split(",")[2]) == values[0, 0]
