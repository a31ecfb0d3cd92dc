"""Every registered op's gradient, checked by convergence order.

``tests.convergence.OP_CASES`` holds at least one case per op in
:func:`repro.autograd.ops.registered_ops`; a registered op without one fails
``test_every_registered_op_has_a_case``.  Each case runs through
:func:`tests.convergence.assert_converges` in float64: the functional ops'
here, the fused ops' in ``tests/test_kernels.py``.  ``TestGradcheck`` checks
the harness itself: it passes correct gradients and catches wrong ones down
to a 1e-9 relative error.
"""

import numpy as np
import pytest

from repro.autograd import Parameter, Tensor
from repro.autograd import functional as F
from repro.autograd.ops import registered_ops
from tests.convergence import OP_CASES, ConvergenceError, assert_converges, check_case


class TestGradcheck:
    def test_passes_on_correct_gradients(self):
        rng = np.random.default_rng(0)
        w = Parameter(rng.normal(size=(3, 4)))
        c = Tensor(rng.normal(size=(3, 4)))
        result = assert_converges(lambda: F.sum(F.mul(F.tanh(w), c)), [w])
        assert 1.8 <= result.slope <= 2.2
        assert result.extrapolated_error <= 1e-10

    def test_fails_on_broken_gradient(self):
        # Sabotage: a "loss" whose analytic gradient we corrupt by detaching.
        rng = np.random.default_rng(1)
        w = Parameter(rng.normal(size=(4,)))

        def broken_loss():
            # detach() cuts the tape: analytic grad is zero, numeric is not.
            return F.sum(F.mul(w.detach(), w.detach()))

        # With a detached loss, backward() cannot even be called (no grad).
        with pytest.raises((ConvergenceError, RuntimeError)):
            assert_converges(broken_loss, [w])

    def test_nonscalar_loss_rejected(self):
        w = Parameter(np.ones(3))
        with pytest.raises(ValueError):
            assert_converges(lambda: F.mul(w, w), [w])

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            assert_converges(lambda: None, [])

    def test_numerical_gradient_quadratic(self):
        """A quadratic's central difference is exact: agreement at rounding."""
        w = Parameter(np.array([3.0, -2.0]))
        result = assert_converges(lambda: F.sum(F.mul(w, w)), [w])
        assert result.extrapolated_error < 1e-13

    def test_detects_wrong_scale(self):
        """An op with a deliberately mis-scaled backward must be caught."""
        rng = np.random.default_rng(2)
        w = Parameter(rng.normal(size=(3,)))

        def bad_double(t):
            # Forward doubles; backward lies (factor 3 instead of 2).
            return Tensor(
                t.data * 2.0,
                requires_grad=True,
                _parents=(t,),
                _backward=lambda g: t.accumulate_grad(g * 3.0, owned=True),
            )

        with pytest.raises(ConvergenceError):
            assert_converges(lambda: F.sum(bad_double(w)), [w])

    def test_unused_parameter_passes(self):
        """A parameter the loss ignores has zero gradient both ways."""
        rng = np.random.default_rng(3)
        w = Parameter(rng.normal(size=(3,)))
        unused = Parameter(rng.normal(size=(2,)))
        assert_converges(lambda: F.sum(F.mul(w, w)), [w, unused])

    @pytest.mark.parametrize("error", [0.0, 1e-9])
    def test_resolves_a_1e9_relative_error(self, error):
        """A ``tanh`` whose backward is off by ``error`` relative: 0 passes,
        1e-9 fails, which one finite-difference epsilon cannot tell apart."""
        rng = np.random.default_rng(4)
        w = Parameter(rng.normal(size=(5, 4)))
        c = rng.normal(size=(5, 4))

        def tanh(t):
            y = np.tanh(t.data)
            return Tensor(
                y,
                requires_grad=True,
                _parents=(t,),
                _backward=lambda g: t.accumulate_grad(g * (1.0 - y * y) * (1.0 + error)),
            )

        def loss():
            return F.sum(F.mul(tanh(w), Tensor(c)))

        if error:
            with pytest.raises(ConvergenceError):
                assert_converges(loss, [w])
        else:
            assert_converges(loss, [w])


def test_every_registered_op_has_a_case():
    missing = [name for _, name in registered_ops() if not OP_CASES.get(name)]
    assert not missing, f"registered ops without a convergence case: {missing}"


@pytest.mark.parametrize(
    "op, case",
    [(name, case) for module, name in registered_ops() if module is F for case in OP_CASES[name]],
    ids=lambda v: v or "-",
)
def test_op_converges(op, case):
    """The functional ops; the fused ops' cases run in test_kernels.TestGradcheck."""
    check_case(op, case)
