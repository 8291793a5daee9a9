import warnings

import numpy as np
import pytest

from stepturn import TrainingDivergedError, nnet
from stepturn.nnet import (
    NetConfig,
    init_params,
    loss_and_grad,
    pack,
    predict,
    train,
    unpack,
    vmmin,
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

    def test_loss_and_grad_matches_oracle_to_rounding(self):
        # the kernel sums in another order than the sample-major oracle and
        # computes the logistic as 1 / (1 + exp(-a)), not scipy's expit;
        # measured: loss within 2.2e-16 relative, gradient within 6.4e-16 of
        # the largest gradient entry at the start (at the trained point the
        # entries cancel to ~1e-4, so they are scaled by the start's)
        for trial in range(6):
            rng = np.random.default_rng(40 + trial)
            n, d, o = int(rng.integers(40, 160)), int(rng.integers(1, 5)), int(rng.integers(1, 3))
            x = rng.normal(size=(n, d))
            y = np.tanh(x @ rng.normal(size=(d, o))) + 0.3 * rng.normal(size=(n, o))
            w = np.clip(rng.uniform(-0.2, 1.0, size=n), 0.0, None)
            config = NetConfig(n_iter=200, l2=float(rng.choice([1e-2, 1e-4])), seed=trial)
            start, shapes = init_params(d, config.n_hidden, o, config.seed)
            trained, _ = train(x, y, w, config)
            scale = np.max(np.abs(network_loss_and_grad(start, shapes, x, y, w, config.l2)[1]))
            for flat in (start, trained):
                loss, grad = loss_and_grad(flat, shapes, x, y, w, config.l2)
                ref_loss, ref_grad = network_loss_and_grad(flat, shapes, x, y, w, config.l2)
                assert abs(loss - ref_loss) <= 1e-13 * ref_loss
                assert np.max(np.abs(grad - ref_grad)) <= 1e-13 * scale

    def test_memory_order_does_not_move_a_bit(self):
        # train passes x and y in Fortran order; C order must give the same bits
        rng = np.random.default_rng(11)
        x, y, w = rng.normal(size=(300, 4)), rng.normal(size=(300, 2)), rng.uniform(size=300)
        flat, shapes = init_params(4, 5, 2, seed=3)
        c_loss, c_grad = loss_and_grad(flat, shapes, x, y, w, 1e-2)
        f_loss, f_grad = loss_and_grad(
            flat, shapes, np.asfortranarray(x), np.asfortranarray(y), w, 1e-2)
        assert c_loss == f_loss and np.array_equal(c_grad, f_grad)

    def test_saturated_hidden_units_stay_finite_and_silent(self):
        # pre-activations beyond +-710, where exp(-a) overflows
        x = np.array([[800.0], [-800.0], [1e5], [-1e5], [0.3]])
        y = np.zeros((5, 1))
        flat = pack(np.ones((2, 1)), np.zeros(2), np.ones((1, 2)), np.zeros(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = loss_and_grad(flat, (1, 2, 1), x, y, np.ones(5), 1e-2)
            out = predict(flat, (1, 2, 1), x)
        assert np.isfinite(loss) and np.isfinite(grad).all()
        np.testing.assert_array_equal(out[:4, 0], [2.0, 0.0, 2.0, 0.0])

    def test_predict_is_the_kernel_forward_pass(self):
        # fitting its own predictions, the kernel sees an error of exactly 0:
        # predict and loss_and_grad share one forward pass and one sigmoid
        rng = np.random.default_rng(12)
        x = rng.normal(size=(200, 3))
        flat, shapes = init_params(3, 5, 2, seed=4)
        flat = flat + rng.normal(size=flat.shape)
        loss, grad = loss_and_grad(flat, shapes, x, predict(flat, shapes, x), np.ones(200), 0.0)
        assert loss == 0.0 and not grad.any()

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
        # accepted at a small epsilon: vmmin needs 1487 iterations to meet
        # RELTOL here, so the default trainings stop on the cap
        runs = []

        def recording_vmmin(*args):
            runs.append(vmmin(*args))
            return runs[-1]

        monkeypatch.setattr(nnet, "vmmin", recording_vmmin)
        rng = np.random.default_rng(10)
        x = 0.05 * rng.normal(size=(100, 4))
        y = 20.0 * x @ rng.normal(size=(4, 2)) + rng.normal(size=(100, 2))
        w = np.clip(1.0 - np.sum((x / 0.05) ** 2, axis=1) / 16.0, 0.0, None)
        a, shapes = train(x, y, w, NetConfig())
        b, _ = train(x, y, w, NetConfig())
        train(x, y, w, NetConfig(n_iter=5000))
        assert NetConfig().n_iter == 700
        assert [run[1:] for run in runs] == [(700, "maxit"), (700, "maxit"), (1487, "reltol")]
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

    def test_every_evaluation_goes_through_loss_and_grad(self, monkeypatch):
        # perfbench counts the module-global loss_and_grad calls per training
        through_global = []
        through_optimizer = []

        def counting_loss_and_grad(*args):
            through_global.append(1)
            return loss_and_grad(*args)

        def counting_vmmin(objective, start, maxit):
            def counted(flat):
                through_optimizer.append(1)
                return objective(flat)
            return vmmin(counted, start, maxit)

        monkeypatch.setattr(nnet, "loss_and_grad", counting_loss_and_grad)
        monkeypatch.setattr(nnet, "vmmin", counting_vmmin)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(80, 3))
        y = np.tanh(x[:, :2]) + 0.1 * rng.normal(size=(80, 2))
        train(x, y, np.ones(80), NetConfig(n_iter=50))
        assert len(through_global) == len(through_optimizer) > 50


def rosenbrock(p):
    a, b = p
    grad = np.array([-400.0 * a * (b - a * a) - 2.0 * (1.0 - a), 200.0 * (b - a * a)])
    return 100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2, grad


def quadratic_objective(matrix, vector):
    return lambda x: (0.5 * x @ matrix @ x - vector @ x, matrix @ x - vector)


class TestVmmin:
    def test_rosenbrock_converges_on_reltol(self):
        x, iterations, reason = vmmin(rosenbrock, [-1.2, 1.0], 1000)
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-6)
        assert reason == "reltol" and iterations < 100

    def test_rosenbrock_matches_r_optim(self, monkeypatch):
        # ?optim's example, optim(c(-1.2, 1), fr, grr, method = "BFGS"),
        # runs vmmin at optim's default reltol sqrt(eps): value
        # 9.594956e-18 after 43 gradient evaluations
        monkeypatch.setattr(nnet, "RELTOL", float(np.sqrt(np.finfo(float).eps)))
        x, iterations, reason = vmmin(rosenbrock, [-1.2, 1.0], 100)
        assert rosenbrock(x)[0] == pytest.approx(9.594956e-18, rel=1e-6)
        assert (iterations, reason) == (43, "reltol")

    def test_quadratic_converges(self):
        matrix = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
        vector = np.array([1.0, -2.0, 0.5])
        x, iterations, reason = vmmin(quadratic_objective(matrix, vector), np.zeros(3), 100)
        np.testing.assert_allclose(x, np.linalg.solve(matrix, vector), atol=1e-4)
        assert reason == "reltol" and iterations < 20

    def test_stops_on_the_cap_before_reltol(self):
        x, iterations, reason = vmmin(rosenbrock, [-1.2, 1.0], 10)
        assert (iterations, reason) == (10, "maxit")
        assert rosenbrock(x)[0] < rosenbrock([-1.2, 1.0])[0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_raises_at_iteration_1(self, bad):
        with pytest.raises(TrainingDivergedError) as excinfo:
            vmmin(lambda x: (bad, np.ones_like(x)), np.zeros(3), 100)
        assert excinfo.value.iteration == 1
        with pytest.raises(TrainingDivergedError) as excinfo:
            vmmin(lambda x: (0.0, np.full_like(x, bad)), np.zeros(3), 100)
        assert excinfo.value.iteration == 1

    def test_zero_gradient_start_stalls(self):
        x, iterations, reason = vmmin(lambda x: (float(x @ x), 2.0 * x), np.zeros(2), 100)
        assert np.array_equal(x, np.zeros(2)) and (iterations, reason) == (1, "stalled")
