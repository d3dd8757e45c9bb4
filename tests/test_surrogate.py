import json
import warnings

import numpy as np
import pytest

from drafttube.surrogate import (
    ACTIVATIONS,
    INITIALIZERS,
    MlpConfig,
    MlpModel,
    SurrogateError,
    TUNED_SCENARIO_I,
    TUNED_SCENARIO_II,
    _sample_config,
    load_model,
    metrics,
    save_model,
    train,
    tune,
)
from drafttube.dataset import MinMaxScaler


def toy_data(n=64, d=4, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    X = rng.uniform(0.0, 1.0, size=(n, d))
    y1 = 0.3 + 0.4 * X[:, 0] - 0.2 * X[:, 1] ** 2
    y2 = 0.5 + 0.1 * np.sin(3.0 * X[:, 2]) + 0.2 * X[:, 3]
    return X, np.column_stack([y1, y2])


# model.forward(X) after TestTraining.test_trajectory_is_pinned's run,
# row-major (64 rows of cp, cd), recorded with the per-tensor Adam loop that
# the flat parameter vector replaced: the two give bit-identical training.
PINNED_FORWARD = np.array([
    0.41128492310207876, 0.46706396373196835, 0.5716556819505263,
    0.8210413685987421, 0.5157523963040718, 0.5250765228912068,
    0.37410698409760057, 0.39602931272731995, 0.2077493595564058,
    0.22991549337845235, 0.43502872964444966, 0.46484028777938996,
    0.6239988600003852, 0.6526927037498268, 0.26462526482357623,
    0.3053728807592203, 0.4931804890042537, 0.5539996432994814,
    0.48085936295917714, 0.7145458631611918, 0.5110304876368994,
    0.4889666856434292, 0.6155066332275151, 0.723682629160694,
    0.5897661916054346, 0.6164652491971394, 0.6164362303221136,
    0.7406708174513692, 0.4921065826668958, 0.5583795049513905,
    0.42195980100611485, 0.5063583732014552, 0.5222307252459728,
    0.5826940747986981, 0.6556492394116412, 0.9391807727410969,
    0.6036496740748557, 0.7344627008852421, 0.3814765861815456,
    0.38543370527523496, 0.5181282071859605, 0.8413860196032884,
    0.5440689667701007, 0.751880288977428, 0.5201296157411329,
    0.5193713722202267, 0.43617095463340294, 0.7060077793780187,
    0.2738980546701021, 0.35001694352616963, 0.5641828704669161,
    0.6789823565544891, 0.37162233143241663, 0.3719275342600439,
    0.42444224514026696, 0.4458325960327791, 0.4295531427794594,
    0.42465572268024915, 0.46135583433306765, 0.47122438983329856,
    0.5790273352033648, 0.6166578942717357, 0.4907341973246704,
    0.7986588452520108, 0.36696366565508215, 0.3700386001916548,
    0.47817703293192504, 0.693681653043123, 0.5768055725808827,
    0.8140754273822551, 0.3586111040230744, 0.38065318358162625,
    0.5669941072384832, 0.5961596504304989, 0.3861797318599466,
    0.39635682491670926, 0.325745601506362, 0.3277862191774581,
    0.3338686403234597, 0.35159597741354354, 0.46203848301108164,
    0.5453808841938804, 0.5709345430824259, 0.807745710673108,
    0.5206503877491118, 0.6107432660420518, 0.2613189543847242,
    0.309172357643587, 0.3762622957867039, 0.553698403468116,
    0.33914271670617513, 0.34582878224982916, 0.5003182109346135,
    0.5665049926418831, 0.4154487819615343, 0.42275739394200595,
    0.3553037490466782, 0.3994281867765241, 0.29033851973464303,
    0.2960185641598932, 0.5727297545969576, 0.7872399125558481,
    0.4399491552934615, 0.6325050031891397, 0.42266975675848606,
    0.4676994624876908, 0.5912964612141159, 0.6806248915071741,
    0.6319417843682521, 0.7258739596692287, 0.4773571346408538,
    0.689034829739656, 0.30779999198657854, 0.32061477012644934,
    0.43825682039104036, 0.635710504493587, 0.4622873843815794,
    0.5436120185741039, 0.23235638883892484, 0.25885422182572154,
    0.33759258416904653, 0.40343084896379533, 0.5792080831698082,
    0.7677260691285159, 0.3239618570431233, 0.4509513227670126,
    0.6036695267918024, 0.7557182859553697,
])


class TestConfigValidation:
    def test_tuned_configs_are_valid(self):
        assert TUNED_SCENARIO_I.activation == "swish"
        assert TUNED_SCENARIO_II.activation == "elu"
        assert len(TUNED_SCENARIO_I.hidden_layers) == 5
        assert len(TUNED_SCENARIO_II.hidden_layers) == 5

    def test_rejects_odd_or_oversized_widths(self):
        with pytest.raises(SurrogateError):
            MlpConfig((16, 7))
        with pytest.raises(SurrogateError):
            MlpConfig((64,))
        with pytest.raises(SurrogateError):
            MlpConfig(tuple([8] * 6))

    def test_rejects_bad_dropout_and_lr(self):
        with pytest.raises(SurrogateError):
            MlpConfig((8,), dropout=(0.9,))
        with pytest.raises(SurrogateError):
            MlpConfig((8,), learning_rate=0.5)

    def test_rejects_unknown_names(self):
        with pytest.raises(SurrogateError):
            MlpConfig((8,), activation="gelu")
        with pytest.raises(SurrogateError):
            MlpConfig((8,), initializer="orthogonal")


class TestActivations:
    def test_gradients_match_finite_differences(self):
        # Even point count keeps z=0 out (relu/leaky_relu kink).
        zs = np.linspace(-3.0, 3.0, 30)
        eps = 1e-6
        for name, (f, df) in ACTIVATIONS.items():
            num = (f(zs + eps) - f(zs - eps)) / (2 * eps)
            np.testing.assert_allclose(df(zs), num, atol=1e-6,
                                       err_msg=name)

    def test_all_six_present(self):
        assert set(ACTIVATIONS) == {"elu", "leaky_relu", "relu", "softplus",
                                    "swish", "tanh"}
        assert len(INITIALIZERS) == 6


class TestBackprop:
    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    def test_network_gradient_check(self, activation):
        rng = np.random.Generator(np.random.PCG64(1))
        cfg = MlpConfig((6, 4), activation=activation, initializer="he_normal")
        model = MlpModel(3, cfg, seed=2)
        X = rng.uniform(-1.0, 1.0, size=(5, 3))
        Y = rng.uniform(0.0, 1.0, size=(5, 2))
        _, grads = model.gradients(X, Y)
        params = model.parameters()
        eps = 1e-6
        for p, g in zip(params, grads):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + eps
                lp = float(np.mean((model.forward(X) - Y) ** 2))
                p[idx] = orig - eps
                lm = float(np.mean((model.forward(X) - Y) ** 2))
                p[idx] = orig
                num = (lp - lm) / (2 * eps)
                assert abs(g[idx] - num) <= 1e-5 * max(1.0, abs(num))


class TestTraining:
    def test_overfits_a_tiny_dataset(self):
        X, Y = toy_data(seed=3)
        model = MlpModel(4, MlpConfig((16, 16), learning_rate=0.01), seed=3)
        train(model, X, Y, X, Y, seed=3)
        loss = float(np.mean((model.forward(X) - Y) ** 2))
        assert loss < 1e-3

    def test_early_stopping_restores_best_weights(self):
        X, Y = toy_data(n=48, seed=4)
        Xv, Yv = toy_data(n=24, seed=5)
        model = MlpModel(4, MlpConfig((8,), learning_rate=0.02,
                                      epochs=200, patience=5), seed=4)
        history = train(model, X, Y, Xv, Yv, seed=4)
        val_loss = float(np.mean((model.forward(Xv) - Yv) ** 2))
        assert val_loss == pytest.approx(history.best_val_loss, rel=1e-9)
        assert history.best_epoch <= history.stopped_epoch
        assert len(history.val_loss) == history.stopped_epoch

    def test_training_is_seed_reproducible(self):
        X, Y = toy_data(seed=6)
        outs = []
        for _ in range(2):
            model = MlpModel(4, MlpConfig((8, 8), epochs=20), seed=6)
            train(model, X, Y, X, Y, seed=6)
            outs.append(model.forward(X))
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_trajectory_is_pinned(self):
        # Any change to the Adam arithmetic, the parameter layout or the
        # random-draw order moves these outputs.
        X, Y = toy_data(seed=6)
        cfg = MlpConfig((8, 6), dropout=(0.2, 0.0), epochs=20)
        model = MlpModel(4, cfg, seed=6)
        train(model, X, Y, X, Y, seed=6)
        np.testing.assert_array_equal(model.forward(X),
                                      PINNED_FORWARD.reshape(-1, 2))

    def test_weights_are_views_into_theta(self):
        model = MlpModel(3, MlpConfig((6, 4)), seed=1)
        params = model.parameters()
        assert sum(p.size for p in params) == model.theta.size
        assert all(np.shares_memory(p, model.theta) for p in params)
        model.theta[...] = 0.0
        assert not any(p.any() for p in params)

    def test_dropout_training_still_converges(self):
        X, Y = toy_data(n=96, seed=7)
        cfg = MlpConfig((16, 16), dropout=(0.2, 0.2), learning_rate=0.01,
                        epochs=150)
        model = MlpModel(4, cfg, seed=7)
        train(model, X, Y, X, Y, seed=7)
        assert float(np.mean((model.forward(X) - Y) ** 2)) < 0.01


class TestMetrics:
    def test_hand_computed_values(self):
        y = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        y_hat = np.array([[1.1, 2.0], [2.0, 4.0], [2.9, 6.0]])
        rep = metrics(y, y_hat)
        # target 0: errors (0.1, 0, -0.1); MAPE = (10% + 0 + 3.333%) / 3
        assert rep.mape[0] == pytest.approx((10.0 + 0.0 + 10.0 / 3) / 3)
        assert rep.r2[0] == pytest.approx(1.0 - 0.02 / 2.0)
        # target 1 is predicted exactly.
        assert rep.mape[1] == pytest.approx(0.0)
        assert rep.rrmse[1] == pytest.approx(0.0)

    def test_constant_target_column_is_rejected(self):
        y = np.array([[1.0, 2.0], [2.0, 2.0]])
        with pytest.raises(SurrogateError):
            metrics(y, y.copy())

    def test_perfect_prediction(self):
        y = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
        rep = metrics(y, y.copy())
        np.testing.assert_allclose(rep.r2, 1.0)
        np.testing.assert_allclose(rep.mape, 0.0)

    def test_zero_targets_excluded_from_mape_with_warning(self):
        y = np.array([[0.0, 1.0], [2.0, 3.0]])
        y_hat = np.array([[0.5, 1.0], [2.0, 3.0]])
        with pytest.warns(UserWarning):
            rep = metrics(y, y_hat)
        assert np.isfinite(rep.mape[0])


class TestTune:
    def test_single_trial_returns_that_config(self):
        X, Y = toy_data(n=50, seed=8)
        best_cfg, best_score, log = tune(X, Y, trials=1, seed=8, k=2,
                                         epochs=5, patience=2)
        assert len(log) == 1
        assert log[0][0] == best_cfg
        assert log[0][1] == best_score

    def test_search_is_seeded(self):
        X, Y = toy_data(n=50, seed=9)
        a = tune(X, Y, trials=2, seed=9, k=2, epochs=3, patience=1)
        b = tune(X, Y, trials=2, seed=9, k=2, epochs=3, patience=1)
        assert [c for c, _ in a[2]] == [c for c, _ in b[2]]
        assert [s for _, s in a[2]] == [s for _, s in b[2]]

    def test_target_minimum_row_raises_no_warning(self):
        X, Y = toy_data(n=50, seed=11)
        Y = (Y - Y.min(axis=0)) / (Y.max(axis=0) - Y.min(axis=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, score, _ = tune(X, Y, trials=1, seed=11, k=2, epochs=3,
                               patience=1)
        assert np.isfinite(score)

    def test_constant_target_column_scores_minus_inf(self):
        X, Y = toy_data(n=50, seed=12)
        Y[:, 1] = 0.5
        _, score, log = tune(X, Y, trials=2, seed=12, k=2, epochs=3,
                             patience=1)
        assert score == -np.inf
        assert all(s == -np.inf for _, s in log)

    def test_sampled_dropout_rates_are_exact_tenths(self):
        rng = np.random.Generator(np.random.PCG64(0))
        rates = {p for _ in range(100) for p in _sample_config(rng).dropout}
        assert rates == {k / 10 for k in range(9)}

    def test_rejects_zero_trials(self):
        X, Y = toy_data(n=30)
        with pytest.raises(SurrogateError):
            tune(X, Y, trials=0)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        X, Y = toy_data(seed=10)
        model = MlpModel(4, MlpConfig((8, 6), activation="tanh"), seed=10)
        train(model, X, Y, X, Y, seed=10)
        model.x_scaler = MinMaxScaler().fit(X)
        model.y_scaler = MinMaxScaler().fit(Y)
        model.meta = {"note": "round trip"}
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        np.testing.assert_array_equal(clone.forward(X), model.forward(X))
        np.testing.assert_array_equal(clone.predict(X), model.predict(X))
        assert clone.meta == model.meta
        assert clone.config == model.config

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("NOT-A-MODEL\n{}\n")
        with pytest.raises(SurrogateError):
            load_model(path)

    @pytest.mark.parametrize("damage", ["truncated", "dropped-layer",
                                        "missing-key", "missing-config-key",
                                        "bad-shape", "short-x-scaler",
                                        "short-y-scaler"])
    def test_malformed_file_names_the_path(self, tmp_path, damage):
        path = tmp_path / "model.json"
        model = MlpModel(4, MlpConfig((8, 6)), seed=0)
        model.x_scaler = MinMaxScaler(np.zeros(4), np.ones(4))
        model.y_scaler = MinMaxScaler(np.zeros(2), np.ones(2))
        save_model(model, path)
        magic, body = path.read_text().split("\n", 1)
        doc = json.loads(body)
        if damage == "truncated":
            body = body[:len(body) // 2]
        else:
            if damage == "dropped-layer":
                del doc["weights"][1]
            elif damage == "missing-key":
                del doc["n_outputs"]
            elif damage == "missing-config-key":
                del doc["config"]["activation"]
            elif damage == "short-x-scaler":
                del doc["x_scaler"]["mins"][-1]
            elif damage == "short-y-scaler":
                del doc["y_scaler"]["maxs"][-1]
            else:
                doc["biases"][0].append(0.0)
            body = json.dumps(doc)
        path.write_text(magic + "\n" + body)
        with pytest.raises(SurrogateError, match="model.json"):
            load_model(path)

    def test_save_without_scalers_fails(self, tmp_path):
        model = MlpModel(4, MlpConfig((8,)), seed=0)
        model.x_scaler = MinMaxScaler(np.zeros(4), np.ones(4))
        with pytest.raises(SurrogateError, match="no attached scaler"):
            save_model(model, tmp_path / "model.json")
        assert not (tmp_path / "model.json").exists()

    def test_predict_without_scalers_fails(self):
        model = MlpModel(4, MlpConfig((8,)), seed=0)
        with pytest.raises(SurrogateError):
            model.predict(np.zeros((2, 4)))
