import ast
import struct
from pathlib import Path

import numpy as np
import pytest

import tot
from tot.errors import GridSizeError
from tot.fieldio import read_field_binary, write_field_binary, write_field_csv
from tot.grid import (antideriv_values, deriv_values, derivative_bundle,
                      irfft2, resample_values, rfft2)


def test_build_grid_spacing():
    g = tot.build_grid(8, 8)
    assert np.all(np.diff(g.nodes1()) == 0.125)
    assert np.all(np.diff(g.nodes2()) == 0.125)
    g = tot.build_grid(16, 32)
    assert np.all(np.diff(g.nodes1()) == 0.0625)
    assert np.all(np.diff(g.nodes2()) == 0.03125)


@pytest.mark.parametrize("n1,n2", [(7, 8), (8, 7), (6, 8), (8, 4)])
def test_build_grid_rejects_bad_sizes(n1, n2):
    with pytest.raises(GridSizeError, match="grid size must be even and"):
        tot.build_grid(n1, n2)


def test_derivative_single_modes():
    g = tot.build_grid(16, 16)
    x1, x2 = g.mesh()
    d = deriv_values(np.cos(2 * np.pi * x1) + 0.0 * x2, 0, 1)
    assert np.max(np.abs(d + 2 * np.pi * np.sin(2 * np.pi * x1))) < 1e-12

    d2 = deriv_values(np.cos(2 * np.pi * x2) + 0.0 * x1, 1, 2)
    assert np.max(np.abs(d2 + 4 * np.pi ** 2 * np.cos(2 * np.pi * x2))) < 1e-12

    const = np.full(g.shape, 3.7)
    for axis in (0, 1):
        for order in (1, 2):
            assert np.max(np.abs(deriv_values(const, axis, order))) < 1e-12


@pytest.mark.parametrize("k1,k2", [(k1, k2) for k1 in range(0, 8)
                                   for k2 in (0, 1, 3, 7)])
def test_derivative_exactness_below_nyquist(k1, k2):
    g = tot.build_grid(16, 16)
    x1, x2 = g.mesh()
    phase = 2 * np.pi * (k1 * x1 + k2 * x2)
    w1, w2 = 2 * np.pi * k1, 2 * np.pi * k2
    for values, dvalues in [
            (np.cos(phase), -np.sin(phase)),
            (np.sin(phase), np.cos(phase))]:
        d = deriv_values(values + 0 * x1 * x2, 0, 1)
        assert np.max(np.abs(d - w1 * dvalues)) < 1e-11
        # the bundle: (d1, d2, d11, d12, d22) from one transform; second
        # derivatives are held to the same accuracy relative to the extra
        # factor 2 pi |k| that scales their rounding
        exact = (w1 * dvalues, w2 * dvalues, -w1 * w1 * values,
                 -w1 * w2 * values, -w2 * w2 * values)
        scale = max(1.0, w1, w2)
        for order, out, ref in zip((1, 1, 2, 2, 2),
                                   derivative_bundle(values + 0 * x1 * x2), exact):
            assert np.max(np.abs(out - ref)) < 1e-11 * scale ** (order - 1)


def _trig_sum(modes, n1, n2):
    """sum of a cos(2 pi (k1 x1 + k2 x2)) + b sin(...) on the n1 x n2 nodes,
    evaluated mode by mode"""
    x1 = np.arange(n1)[:, None] / n1
    x2 = np.arange(n2)[None, :] / n2
    out = np.zeros((n1, n2))
    for k1, k2, a, b in modes:
        phase = 2 * np.pi * (k1 * x1 + k2 * x2)
        out += a * np.cos(phase) + b * np.sin(phase)
    return out


@pytest.mark.parametrize("source,target", [
    ((32, 32), (64, 64)), ((64, 64), (32, 32)),
    ((32, 48), (96, 16)), ((96, 16), (32, 48)), ((40, 24), (40, 24))])
def test_resample_is_exact_below_both_nyquists(source, target):
    # every mode has |k| below the Nyquist of the smaller size per axis
    rng = np.random.default_rng(71)
    lim1 = min(source[0], target[0]) // 2 - 1
    lim2 = min(source[1], target[1]) // 2 - 1
    modes = [(k1, k2, rng.normal(), rng.normal())
             for k1 in range(-lim1, lim1 + 1) for k2 in range(0, lim2 + 1)
             if k2 > 0 or k1 >= 0]
    out = resample_values(_trig_sum(modes, *source), target)
    assert out.shape == target
    assert np.max(np.abs(out - _trig_sum(modes, *target))) < 1e-11
    back = resample_values(out, source)
    assert np.max(np.abs(back - _trig_sum(modes, *source))) < 1e-11


@pytest.mark.parametrize("source,target", [
    ((32, 32), (64, 64)), ((64, 64), (32, 32)), ((32, 48), (96, 16)),
    ((40, 24), (40, 24))])
def test_resample_drops_nyquist_rows(source, target):
    # content on the Nyquist row or column of either grid does not survive
    m1, m2 = min(source[0], target[0]) // 2, min(source[1], target[1]) // 2
    nyquist = [(m1, 0, 1.0, 0.0), (0, m2, 1.0, 0.0), (m1, 3, 0.5, 0.25),
               (2, m2, 0.5, 0.0)]
    kept = [(1, 1, 0.3, -0.2), (0, 1, 0.1, 0.0)]
    out = resample_values(_trig_sum(nyquist + kept, *source), target)
    assert np.max(np.abs(out - _trig_sum(kept, *target))) < 1e-12


@pytest.mark.parametrize("source,target", [(32, 64), (64, 32), (48, 48)])
def test_resample_1d_is_exact_below_both_nyquists(source, target):
    # the marginal potential u1 moves between grids with the 2D convention:
    # modes below the smaller Nyquist survive, the Nyquist mode does not
    rng = np.random.default_rng(73)
    lim = min(source, target) // 2

    def trig_sum(coeffs, n):
        x = np.arange(n) / n
        return sum(a * np.cos(2 * np.pi * k * x) + b * np.sin(2 * np.pi * k * x)
                   for k, (a, b) in enumerate(coeffs))

    coeffs = rng.normal(size=(lim, 2))
    nyquist = np.cos(2 * np.pi * lim * np.arange(source) / source)
    out = resample_values(trig_sum(coeffs, source) + nyquist, (target,))
    assert out.shape == (target,)
    assert np.max(np.abs(out - trig_sum(coeffs, target))) < 1e-12


def test_second_derivative_keeps_nyquist():
    g = tot.build_grid(16, 16)
    x1, x2 = g.mesh()
    # the Nyquist mode cos(pi*n*x) is invisible to order 1 and carried
    # with symbol -(pi n)^2 by order 2
    f = np.cos(np.pi * g.n1 * x1) + 0.0 * x2
    assert np.max(np.abs(deriv_values(f, 0, 1))) < 1e-10
    expected = -(np.pi * g.n1) ** 2 * f
    assert np.max(np.abs(deriv_values(f, 0, 2) - expected)) < 1e-8
    # the bundle, on the Nyquist mode along x1 times a low mode along x2
    # and on its transpose: x1 runs over the full spectrum of rfft2, x2
    # over its half spectrum
    wave, low = np.cos(np.pi * g.n1 * x1), 2 * np.pi * x2
    u = wave * (1.0 + 0.5 * np.cos(low))
    exact = (0.0 * u, -np.pi * wave * np.sin(low), -(np.pi * g.n1) ** 2 * u,
             0.0 * u, -2 * np.pi ** 2 * wave * np.cos(low))
    tols = (1e-10, 1e-10, 1e-8, 1e-10, 1e-10)
    for out, ref, tol in zip(derivative_bundle(u), exact, tols):
        assert np.max(np.abs(out - ref)) < tol
    for out, i in zip(derivative_bundle(u.T), (1, 0, 4, 3, 2)):
        assert np.max(np.abs(out - exact[i].T)) < tols[i]


def test_derivative_bundle_matches_numpy_irfft2():
    # oracle: numpy's 2D real transforms with symbols written out here, on
    # a non-square field that has content in both Nyquist modes.  Odd
    # symbols zero the Nyquist mode, even ones keep it
    n1, n2 = 64, 96
    u = np.random.default_rng(22).standard_normal((n1, n2))
    k1 = np.fft.fftfreq(n1, 1.0 / n1)[:, None]
    k2 = np.fft.rfftfreq(n2, 1.0 / n2)[None, :]
    i1 = np.where(np.abs(k1) == n1 // 2, 0.0, 2j * np.pi * k1)
    i2 = np.where(k2 == n2 // 2, 0.0, 2j * np.pi * k2)
    spec = np.fft.rfft2(u)
    for out, symbol in zip(derivative_bundle(u), (
            i1, i2, -(2 * np.pi * k1) ** 2, i1 * i2, -(2 * np.pi * k2) ** 2)):
        ref = np.fft.irfft2(spec * symbol, (n1, n2))
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("k", [1, 3, 7])
def test_antiderivative_is_exact_primitive(k):
    # the primitive of cos(2 pi k x) is sin(2 pi k x) / (2 pi k); the
    # Nyquist row (k = 8 on 16 nodes) and the mean are dropped
    x = np.arange(16) / 16
    values = np.cos(2 * np.pi * k * x)
    exact = np.sin(2 * np.pi * k * x) / (2 * np.pi * k)
    junk = 3.0 + np.cos(np.pi * 16 * x)
    assert np.max(np.abs(antideriv_values(values + junk, 0) - exact)) < 1e-14
    # row-stacked: row r carries amplitude r + 1, integrated along axis 1
    rows = np.arange(1, 5)[:, None] * values
    out = antideriv_values(rows, 1)
    assert np.max(np.abs(out - np.arange(1, 5)[:, None] * exact)) < 1e-14
    assert np.max(np.abs(antideriv_values(rows.T, 0) - out.T)) < 1e-14


@pytest.mark.parametrize("shape", [(8, 8), (64, 64), (64, 128), (128, 64),
                                   (256, 256)])
def test_2d_transforms_equal_numpy_bit_for_bit(shape):
    values = np.random.default_rng(sum(shape)).standard_normal(shape)
    spec = rfft2(values)
    assert np.array_equal(spec, np.fft.rfft2(values))
    # a spectrum that is not the transform of a real array
    spec = spec + 1j * np.random.default_rng(1).standard_normal(spec.shape)
    assert np.array_equal(irfft2(spec, shape), np.fft.irfft2(spec, shape))


# numpy's n-d transforms; every 2D transform of tot runs through
# grid.rfft2 and grid.irfft2 or the axis passes of grid.derivative_bundle
# instead
ND_TRANSFORMS = {"rfft2", "irfft2", "rfftn", "irfftn", "fft2", "ifft2"}


def _nd_transform_uses(path):
    """(line, name) of every n-d numpy transform that the module at
    ``path`` calls as ``<...>.fft.<name>`` or imports from numpy.fft."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr in ND_TRANSFORMS
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "fft"):
                uses.append((node.lineno, func.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.fft":
            uses += [(node.lineno, alias.name) for alias in node.names
                     if alias.name in ND_TRANSFORMS | {"*"}]
    return uses


def test_2d_transforms_run_only_through_the_grid_helpers(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nfrom numpy.fft import irfftn\n"
                   "x = np.fft.rfft2(np.ones((8, 8)))\n", encoding="utf-8")
    assert _nd_transform_uses(bad) == [(2, "irfftn"), (3, "rfft2")]
    modules = sorted(Path(tot.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    assert {m.name: _nd_transform_uses(m) for m in modules
            if _nd_transform_uses(m)} == {}


def test_integrate_mean_and_projection():
    g = tot.build_grid(32, 32)
    x1, x2 = g.mesh()
    # the mean of the node values is the torus average, exactly for modes
    # below the Nyquist
    assert abs(np.mean(1.0 + 0.3 * np.cos(2 * np.pi * x1) + 0.0 * x2) - 1.0) < 1e-14
    assert abs(np.mean(np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2))) < 1e-14

    proj = tot.project_zero_mean(tot.field(g, np.full(g.shape, 5.0)))
    assert proj.zero_mean
    assert np.max(np.abs(proj.values)) < 1e-14


def test_mean_annihilation_of_derivatives():
    rng = np.random.default_rng(0)
    g = tot.build_grid(32, 32)
    u = rng.normal(size=g.shape)
    for axis in (0, 1):
        assert abs(np.mean(deriv_values(u, axis, 1))) < 1e-13


def test_mixed_derivatives_commute():
    from tests.conftest import band_limited
    rng = np.random.default_rng(1)
    g = tot.build_grid(32, 32)
    raw = band_limited(g, 6, rng)
    u = raw / np.max(np.abs(raw))
    d12 = deriv_values(deriv_values(u, 0, 1), 1, 1)
    d21 = deriv_values(deriv_values(u, 1, 1), 0, 1)
    assert np.max(np.abs(d12 - d21)) < 1e-11


def test_binary_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    g = tot.build_grid(16, 32)
    f = tot.field(g, rng.normal(size=g.shape))
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


@pytest.mark.parametrize("n1,n2", [(128, 64), (96, 40)])
def test_csv_export_matches_per_node_reference(tmp_path, n1, n2):
    # the reference writes one f-string per node, as the format defines it;
    # the nodes i/96 and j/40 need all 17 digits
    g = tot.build_grid(n1, n2)
    rng = np.random.default_rng(11)
    values = rng.standard_normal(g.shape) * 10.0 ** rng.integers(-20, 20, g.shape)
    values.flat[:6] = [-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300]
    path = tmp_path / "field.csv"
    write_field_csv(tot.field(g, values), path)
    x1, x2 = g.nodes1(), g.nodes2()
    lines = ["x1,x2,value\n"] + [f"{x1[i]:.17g},{x2[j]:.17g},{values[i, j]:.17g}\n"
                                 for i in range(g.n1) for j in range(g.n2)]
    assert path.read_bytes() == "".join(lines).encode("utf-8")
