"""The test oracles' own checks: the finite-difference checker passes a right
gradient and fails a wrong one."""

import numpy as np

from oracles import grad_check


def test_grad_check_quadratic():
    params = {"theta": np.array([3.0])}
    report = grad_check(lambda p: float(p["theta"][0] ** 2), params,
                        {"theta": np.array([6.0])}, eps=1e-4, tol=1e-7)
    assert report.passed
    assert report.groups["theta"].max_rel_err < 1e-7


def test_grad_check_constant_function():
    params = {"w": np.zeros((2, 2))}
    report = grad_check(lambda p: 1.0, params, {"w": np.zeros((2, 2))})
    assert report.passed
    assert report.groups["w"].max_rel_err == 0.0


def test_grad_check_catches_wrong_gradient():
    params = {"theta": np.array([3.0])}
    report = grad_check(lambda p: float(p["theta"][0] ** 2), params,
                        {"theta": np.array([5.0])})
    assert not report.passed
