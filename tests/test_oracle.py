"""Finite-difference oracle sanity checks against closed forms."""

import math

import numpy as np
import pytest

from oracle import FDConfig, fd_derivative, fd_directional, fd_second, fd_third


def test_sine_slope_at_origin():
    assert abs(fd_derivative(math.sin, 0.0) - 1.0) <= 1e-10


def test_cubic_slope():
    assert abs(fd_derivative(lambda t: t ** 3, 2.0) - 12.0) <= 1e-8


def test_second_and_third_derivatives():
    assert abs(fd_second(math.exp, 0.3) - math.exp(0.3)) <= 1e-7
    assert abs(fd_third(lambda t: t ** 4, 1.5) - 24.0 * 1.5) <= 1e-5


def test_vector_valued_function():
    out = fd_derivative(lambda t: [math.cos(t), math.sin(t)], 0.0)
    assert np.allclose(out, [0.0, 1.0], atol=1e-10)


def test_richardson_beats_single_level():
    def f(t):
        return math.sin(3.0 * t)

    exact = 3.0 * math.cos(0.6)
    coarse = abs(fd_derivative(f, 0.2, FDConfig(step=1e-3, richardson_levels=1)) - exact)
    refined = abs(fd_derivative(f, 0.2, FDConfig(step=1e-3, richardson_levels=2)) - exact)
    assert refined < coarse


def test_directional_orders():
    def f(x):
        return x[0] ** 2 * x[1]

    base, direction = [1.0, 2.0], [1.0, 1.0]
    # g(t) = (1+t)^2 (2+t); g'(0) = 2*2 + 1 = 5; g''(0) = 2*2 + 2*2 = ... derive:
    # g = (1 + 2t + t^2)(2 + t) = 2 + 5t + 4t^2 + t^3
    assert abs(fd_directional(f, base, direction, 1) - 5.0) <= 1e-8
    assert abs(fd_directional(f, base, direction, 2) - 8.0) <= 1e-6
    assert abs(fd_directional(f, base, direction, 3) - 6.0) <= 1e-4
    with pytest.raises(ValueError):
        fd_directional(f, base, direction, 4)


def test_config_validation():
    with pytest.raises(ValueError):
        FDConfig(step=0.0)
    with pytest.raises(ValueError):
        FDConfig(richardson_levels=0)


def test_evaluation_failure_propagates():
    def bad(t):
        raise RuntimeError("no value here")

    with pytest.raises(RuntimeError):
        fd_derivative(bad, 0.0)
