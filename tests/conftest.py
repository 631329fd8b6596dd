import ctypes
import glob
import os

import numpy as np
import pytest

import ticketlab as tl


def _read(lookup):
    """lookup(), or "unknown" if it fails in any way: a line of the test log
    must not fail the session."""
    try:
        return lookup()
    except Exception:
        return "unknown"


def blas_line():
    """numpy's version, the BLAS it was built with, and the kernel and thread
    count that OpenBLAS reports, the last two read from the OpenBLAS under
    numpy.libs: a test of bits can depend on all four."""
    blas = _read(lambda: "{name} {version}".format(
        **np.show_config(mode="dicts")["Build Dependencies"]["blas"]))
    lib = _read(lambda: ctypes.CDLL(glob.glob(os.path.join(
        os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))[0]))

    def call(name, restype):
        function = getattr(lib, name)
        function.argtypes, function.restype = [], restype
        return function()

    core = _read(lambda: call("scipy_openblas_get_corename64_", ctypes.c_char_p).decode())
    threads = _read(lambda: call("scipy_openblas_get_num_threads64_", ctypes.c_int))
    return f"numpy {np.__version__}, BLAS {blas}, OpenBLAS kernel {core}, threads {threads}"


def pytest_terminal_summary(terminalreporter):
    # a pytest_report_header line would not show under -q
    terminalreporter.write_line(blas_line())


@pytest.fixture
def tiny_mlp_spec():
    return tl.ModelSpec("mlp", (5,), 3, hidden=(7,))


@pytest.fixture
def tiny_conv_spec():
    return tl.ModelSpec("convnet", (2, 4, 4), 3, channels=(3,))


@pytest.fixture
def blobs_2d():
    return tl.synth_dataset("gaussianBlobs", 2, 100, 0.1, seed=0)


@pytest.fixture
def blob_mlp_spec():
    return tl.ModelSpec("mlp", (2,), 2, hidden=(16,))


@pytest.fixture
def foreign_mask():
    """Parameters of one MLP and a half-pruned mask of another: both have 10
    positions, laid out differently."""
    params = tl.init_params(tl.ModelSpec("mlp", (1,), 2, hidden=(2,)), 0)
    other = tl.init_params(tl.ModelSpec("mlp", (1,), 4, hidden=(1,)), 0)
    return params, tl.magnitude_prune(other, tl.SparsityMask.ones(other.layer_map), 0.5)


def reference_loss(spec, params, mask, x, y):
    """Independent mean cross-entropy, used as the finite-difference oracle."""
    logits = tl.forward(spec, params, mask, x)
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    return float((lse - logits[np.arange(len(y)), y]).mean())


def finite_difference_gradient(spec, params, mask, x, y, eps=1e-5):
    """Central finite differences over every coordinate of the flat vector."""
    fd = np.zeros_like(params.values)
    for i in range(len(params)):
        up = params.values.copy()
        up[i] += eps
        down = params.values.copy()
        down[i] -= eps
        lp = reference_loss(spec, tl.ParameterVector(up, params.layer_map), mask, x, y)
        lm = reference_loss(spec, tl.ParameterVector(down, params.layer_map), mask, x, y)
        fd[i] = (lp - lm) / (2 * eps)
    return fd


def max_relative_error(a, b, floor=1e-8):
    return float(np.max(np.abs(a - b) / np.maximum(floor, np.abs(a) + np.abs(b))))
