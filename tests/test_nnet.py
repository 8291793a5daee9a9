import numpy as np
import pytest
from scipy.optimize import minimize

from stepturn import TrainingDivergedError, nnet
from stepturn.nnet import (
    NetConfig,
    init_params,
    loss_and_grad,
    pack,
    predict,
    train,
    unpack,
)

from oracles import network_loss_and_grad


def finite_difference_gradient(flat, shapes, x, y, w, l2, step=1e-6):
    grad = np.empty_like(flat)
    for i in range(len(flat)):
        bumped = flat.copy()
        bumped[i] += step
        up, _ = loss_and_grad(bumped, shapes, x, y, w, l2)
        bumped[i] -= 2 * step
        down, _ = loss_and_grad(bumped, shapes, x, y, w, l2)
        grad[i] = (up - down) / (2 * step)
    return grad


class TestGradient:
    def test_against_central_differences(self):
        # 20 random configurations; max relative error below 1e-4
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            n, d, h, o = rng.integers(12, 40), rng.integers(1, 5), rng.integers(2, 7), rng.integers(1, 3)
            x = rng.normal(size=(n, d))
            y = rng.normal(size=(n, o))
            w = rng.uniform(0.1, 1.0, size=n)
            l2 = float(rng.uniform(1e-4, 1e-1))
            flat, shapes = init_params(d, h, o, seed=trial)
            flat = flat + 0.1 * rng.normal(size=flat.shape)
            _, analytic = loss_and_grad(flat, shapes, x, y, w, l2)
            numeric = finite_difference_gradient(flat, shapes, x, y, w, l2)
            scale = max(np.max(np.abs(numeric)), 1e-12)
            rel = float(np.max(np.abs(analytic - numeric)) / scale)
            worst = max(worst, rel)
        assert worst < 1e-4, worst

    def test_loss_and_grad_equals_oracle_bit_for_bit(self):
        for trial in range(6):
            rng = np.random.default_rng(40 + trial)
            n, d, o = int(rng.integers(40, 160)), int(rng.integers(1, 5)), int(rng.integers(1, 3))
            x = rng.normal(size=(n, d))
            y = np.tanh(x @ rng.normal(size=(d, o))) + 0.3 * rng.normal(size=(n, o))
            w = np.clip(rng.uniform(-0.2, 1.0, size=n), 0.0, None)
            config = NetConfig(n_iter=200, l2=float(rng.choice([1e-2, 1e-4])), seed=trial)
            start, shapes = init_params(d, config.n_hidden, o, config.seed)
            trained, _ = train(x, y, w, config)
            for flat in (start, trained):
                loss, grad = loss_and_grad(flat, shapes, x, y, w, config.l2)
                ref_loss, ref_grad = network_loss_and_grad(flat, shapes, x, y, w, config.l2)
                assert loss == ref_loss and np.array_equal(grad, ref_grad)

    def test_pack_unpack_round_trip(self):
        flat, shapes = init_params(4, 5, 2, seed=0)
        w1, b1, w2, b2 = unpack(flat, shapes)
        assert np.array_equal(pack(w1, b1, w2, b2), flat)


class TestConstantNetwork:
    def test_zero_hidden_weights_give_constant_output(self):
        # all hidden weights 0 and output bias b: the network is the
        # constant function b, so corrections reduce to the identity
        shapes = (4, 5, 2)
        b = np.array([3.5, -1.25])
        flat = pack(np.zeros((5, 4)), np.zeros(5), np.zeros((2, 5)), b)
        x = np.random.default_rng(1).normal(size=(50, 4))
        out = predict(flat, shapes, x)
        np.testing.assert_array_equal(out, np.tile(b, (50, 1)))
        theta = np.random.default_rng(2).normal(size=(50, 2))
        corrected = predict(flat, shapes, np.zeros((1, 4)))[0] + (theta - out)
        np.testing.assert_allclose(corrected, theta, atol=1e-15)


class TestTrain:
    def test_fits_linear_function(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(200, 3))
        y = x @ np.array([[1.0], [0.5], [-0.25]])
        flat, shapes = train(x, y, np.ones(200), NetConfig(n_hidden=4, l2=1e-4, n_iter=5000))
        fitted = predict(flat, shapes, x)
        assert np.sqrt(np.mean((fitted - y) ** 2)) < 0.05

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(80, 2))
        y = np.sin(x[:, :1]) + x[:, 1:]
        w = rng.uniform(0.2, 1.0, size=80)
        a, _ = train(x, y, w, NetConfig(n_iter=400))
        b, _ = train(x, y, w, NetConfig(n_iter=400))
        assert np.array_equal(a, b)

    def test_default_config_stops_at_the_cap(self, monkeypatch):
        # inputs on a small scale, like the standardized summaries of rows
        # accepted at a small epsilon: BFGS is still above grad_tol after
        # R abc's 500 iterations, so both trainings stop on the cap
        results = []

        def recording_minimize(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(nnet, "minimize", recording_minimize)
        rng = np.random.default_rng(10)
        x = 0.05 * rng.normal(size=(100, 4))
        y = 20.0 * x @ rng.normal(size=(4, 2)) + rng.normal(size=(100, 2))
        w = np.clip(1.0 - np.sum((x / 0.05) ** 2, axis=1) / 16.0, 0.0, None)
        a, shapes = train(x, y, w)
        b, _ = train(x, y, w)
        assert NetConfig().n_iter == 500 and [r.nit for r in results] == [500, 500]
        assert np.array_equal(a, b) and np.isfinite(a).all()
        assert shapes == (4, 5, 2)

    def test_nonlinear_signal_regresses(self):
        # a kernel-weighted nonlinear signal under unit noise, standardized
        # as neuralnet_adjust standardizes its targets: the fit must leave
        # the all-zero output weights and leave about the residual the true
        # regression function leaves (the weighted mean leaves 1.0)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(300, 4))
        signal = 0.6 * (np.sin(2.0 * x[:, :1]) + x[:, 1:2] ** 2)
        y = signal + rng.normal(size=signal.shape)
        w = np.clip(1.0 - np.sum(x**2, axis=1) / 25.0, 0.0, None)
        w_norm = w / w.sum()
        center = w_norm @ y
        spread = np.sqrt(w_norm @ (y - center) ** 2)
        y, signal = (y - center) / spread, (signal - center) / spread
        flat, shapes = train(x, y, w, NetConfig())
        _, _, w2, _ = unpack(flat, shapes)
        assert np.max(np.abs(w2)) > 0.1
        fit_residual = float((w_norm @ (predict(flat, shapes, x) - y) ** 2)[0])
        true_residual = float((w_norm @ (signal - y) ** 2)[0])
        assert fit_residual < true_residual + 0.05, (fit_residual, true_residual)

    def test_divergence_reports_iteration(self):
        # inf inputs saturate the hidden layer (finite loss) but poison the
        # gradient, so the first update step produces a non-finite loss
        x = np.array([[1.0, np.inf], [0.0, 1.0]] * 30)
        y = np.zeros((60, 1))
        with pytest.raises(TrainingDivergedError) as excinfo, np.errstate(invalid="ignore"):
            train(x, y, np.ones(60), NetConfig())
        assert excinfo.value.iteration == 1
        assert "iteration 1" in str(excinfo.value)

    def test_weight_zero_rows_ignored(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(100, 2))
        y = x @ np.array([[2.0], [1.0]])
        w = np.ones(100)
        w[50:] = 0.0
        corrupted_y = y.copy()
        corrupted_y[50:] += 100.0  # zero-weight rows must not affect the fit
        full, _ = train(x, corrupted_y, w, NetConfig(n_iter=300, seed=9))
        clean, _ = train(x, y, w, NetConfig(n_iter=300, seed=9))
        np.testing.assert_allclose(full, clean, atol=1e-12)
