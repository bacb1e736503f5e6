import re

import numpy as np
import pytest

from cipheropt.objectives import (
    QuadraticSensorObjective,
    generate_sensor_fusion,
    load_instance,
    optimal_solution,
    problem_from_instance,
    save_instance,
    with_noise,
)


def finite_difference(obj, x, h=1e-6):
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
    return g


@pytest.fixture(scope="module")
def instance():
    return generate_sensor_fusion(m=4, s=3, d=2, omega=0.01, seed=11)


@pytest.fixture(scope="module")
def problem(instance):
    return problem_from_instance(instance)


class TestLocalObjective:
    def test_gradient_matches_finite_differences(self, instance):
        rng = np.random.default_rng(5)
        for i in range(1, instance.m + 1):
            obj = instance.objective(i)
            for _ in range(5):
                x = rng.normal(size=instance.d)
                analytic = obj.gradient(x)
                numeric = finite_difference(obj, x)
                assert np.allclose(analytic, numeric, atol=1e-4)

    def test_value_at_truth_is_noise_energy(self):
        inst = generate_sensor_fusion(m=2, s=3, d=2, omega=0.01, seed=0)
        noiseless = type(inst)(omega=inst.omega, x_tilde=inst.x_tilde,
                               measurements=inst.measurements,
                               noises=tuple(np.zeros(inst.s) for _ in range(inst.m)))
        obj = noiseless.objective(1)
        want = inst.omega * float(inst.x_tilde @ inst.x_tilde)
        assert obj.value(inst.x_tilde) == pytest.approx(want)

    def test_curvature_brackets_sampled_gradients(self, instance):
        # L and mu from the Gram spectrum must bracket the observed
        # gradient variation ||g(x) - g(y)|| / ||x - y||
        rng = np.random.default_rng(9)
        for i in range(1, instance.m + 1):
            obj = instance.objective(i)
            big, mu = obj.lipschitz, obj.strong_convexity
            for _ in range(50):
                x, y = rng.normal(size=(2, instance.d))
                num = np.linalg.norm(obj.gradient(x) - obj.gradient(y))
                den = np.linalg.norm(x - y)
                ratio = num / den
                assert ratio <= big * (1 + 1e-9)
                assert ratio >= mu * (1 - 1e-9)

    def test_dimension_mismatch_rejected(self, instance):
        with pytest.raises(ValueError):
            instance.objective(1).gradient(np.zeros(5))

    def test_nonpositive_regularization_rejected(self):
        with pytest.raises(ValueError):
            QuadraticSensorObjective(np.ones((2, 2)), np.ones(2), 0.0)


class TestGeneration:
    def test_shapes_and_ranges(self, instance):
        assert instance.m == 4 and instance.s == 3 and instance.d == 2
        for mat in instance.measurements:
            assert mat.shape == (3, 2)
            assert np.all(mat >= 0.0) and np.all(mat <= 10.0)
        assert np.all(instance.x_tilde >= 0.0) and np.all(instance.x_tilde <= 1.0)

    @pytest.mark.parametrize("field", ["m", "s", "d"])
    @pytest.mark.parametrize("value", [0, 2.5, True, np.float64(2.0)])
    def test_counts_are_whole_numbers_of_at_least_one(self, field, value):
        counts = {"m": 2, "s": 2, "d": 2, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be a whole number of at least 1, "
                                             f"got {re.escape(repr(value))}$"):
            generate_sensor_fusion(**counts, omega=0.01, seed=4)

    def test_same_seed_same_instance(self):
        a = generate_sensor_fusion(m=3, s=2, d=2, omega=0.01, seed=4)
        b = generate_sensor_fusion(m=3, s=2, d=2, omega=0.01, seed=4)
        for ma, mb in zip(a.measurements, b.measurements):
            assert np.array_equal(ma, mb)
        for na, nb in zip(a.noises, b.noises):
            assert np.array_equal(na, nb)

    def test_with_noise_redraws_only_noise(self, instance):
        redrawn = with_noise(instance, seed=99)
        for ma, mb in zip(instance.measurements, redrawn.measurements):
            assert np.array_equal(ma, mb)
        assert np.array_equal(instance.x_tilde, redrawn.x_tilde)
        assert not any(
            np.array_equal(na, nb)
            for na, nb in zip(instance.noises, redrawn.noises)
        )

    def test_problem_curvature_aggregates(self, problem, instance):
        ls = [instance.objective(i).lipschitz for i in range(1, 5)]
        mus = [instance.objective(i).strong_convexity for i in range(1, 5)]
        assert problem.l_hat == pytest.approx(max(ls))
        assert problem.l_bar == pytest.approx(sum(ls) / 4)
        assert problem.mu_hat == pytest.approx(max(mus))
        assert problem.mu_bar == pytest.approx(sum(mus) / 4)
        assert problem.kappa == pytest.approx(max(ls) / (sum(mus) / 4))

    @pytest.mark.parametrize("omega", [1e308, 5e307], ids=["each-infinite", "sum-infinite"])
    def test_problem_of_infinite_curvature_rejected(self, omega):
        # at 1e308 each agent's L and mu overflow; at 5e307 each is finite, their mean not
        inst = generate_sensor_fusion(m=4, s=3, d=2, omega=omega, seed=11)
        with pytest.raises(ValueError, match="^the aggregate curvature must be finite, got L = inf"):
            problem_from_instance(inst)


class TestOptimalSolution:
    def test_normal_equations_residual(self, problem):
        x_star = optimal_solution(problem)
        total = sum(problem.gradient(i, x_star) for i in range(1, problem.m + 1))
        assert np.linalg.norm(total) <= 1e-10

    def test_matches_gradient_descent(self, problem):
        # independent slow oracle: plain descent on the summed objective
        x = np.zeros(problem.d)
        step = 1.0 / (problem.m * problem.l_hat)
        for _ in range(20000):
            g = sum(problem.gradient(i, x) for i in range(1, problem.m + 1))
            x = x - step * g
        assert np.allclose(x, optimal_solution(problem), atol=1e-8)

    def test_recovery_improves_with_low_noise(self):
        # with tiny noise the minimizer sits near the ground truth, up to
        # the ridge bias of the omega term
        inst = generate_sensor_fusion(m=6, s=4, d=2, omega=0.01, seed=2)
        quiet = type(inst)(omega=inst.omega, x_tilde=inst.x_tilde,
                           measurements=inst.measurements,
                           noises=tuple(n * 1e-6 for n in inst.noises))
        x_star = optimal_solution(problem_from_instance(quiet))
        assert np.linalg.norm(x_star - inst.x_tilde) <= 1e-3


class TestInstanceFiles:
    def test_round_trip(self, tmp_path, instance):
        path = tmp_path / "instance.json"
        save_instance(instance, path)
        loaded = load_instance(path)
        assert loaded.omega == instance.omega
        assert np.array_equal(loaded.x_tilde, instance.x_tilde)
        for ma, mb in zip(loaded.measurements, instance.measurements):
            assert np.array_equal(ma, mb)
        for na, nb in zip(loaded.noises, instance.noises):
            assert np.array_equal(na, nb)

    def test_round_trip_preserves_objective_values(self, tmp_path, instance):
        path = tmp_path / "instance.json"
        save_instance(instance, path)
        loaded = load_instance(path)
        x = np.array([0.3, -0.7])
        for i in range(1, instance.m + 1):
            assert loaded.objective(i).value(x) == instance.objective(i).value(x)


def _instance_lines(instance, tmp_path):
    path = tmp_path / "good.txt"
    save_instance(instance, path)
    return path.read_text().splitlines()


class TestMalformedInstanceFiles:
    """Each case: the lines of a valid m=4, s=3, d=2 file, edited; then the
    line number (None for a missing line) and the message expected."""

    CASES = {
        "bare measurement": (lambda ls: ls + ["measurement"], 14, "expected 'measurement"),
        "measurement without numbers": (lambda ls: ls + ["measurement 2"], 14, "expected"),
        "non-integer agent": (lambda ls: ls + ["noise two 1.0 2.0 3.0"], 14, "expected 'noise"),
        "non-numeric value": (lambda ls: ["m four"] + ls[1:], 1, "expected 'm <numbers>'"),
        "bare key": (lambda ls: ls[:1] + ["s"] + ls[2:], 2, "expected 's <numbers>'"),
        "fractional m": (lambda ls: ["m 2.5"] + ls[1:], 1, "m must be a positive whole"),
        "zero d": (lambda ls: ls[:2] + ["d 0"] + ls[3:], 3, "d must be a positive whole"),
        "unknown key": (lambda ls: ls + ["sigma 1.0"], 14, "unknown key 'sigma'"),
        "repeated omega": (lambda ls: ls + ["omega 5.0"], 14, "repeated 'omega' line, first at"),
        "repeated noise": (lambda ls: ls + [l for l in ls if l.startswith("noise 2 ")], 14,
                           "repeated 'noise 2' line"),
        "short measurement": (lambda ls: ls[:5] + ["measurement 1 1.0 2.0"] + ls[6:], 6,
                              "'measurement 1' needs 6 numbers, got 2"),
        "long x_tilde": (lambda ls: ls[:4] + ["x_tilde 1 2 3"] + ls[5:], 5,
                         "'x_tilde' needs 2 numbers, got 3"),
        "missing m": (lambda ls: ls[1:], None, "missing 'm' line"),
        "missing omega": (lambda ls: ls[:3] + ls[4:], None, "missing 'omega' line"),
        "missing x_tilde": (lambda ls: ls[:4] + ls[5:], None, "missing 'x_tilde' line"),
        "missing measurement": (lambda ls: [l for l in ls if not l.startswith("measurement 3 ")],
                                None, "missing 'measurement 3' line"),
        "missing noise": (lambda ls: [l for l in ls if not l.startswith("noise 4 ")],
                          None, "missing 'noise 4' line"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_with_location(self, tmp_path, instance, case):
        edit, line, message = self.CASES[case]
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(edit(_instance_lines(instance, tmp_path))) + "\n")
        where = f"{path}:{line}: " if line is not None else f"{path}: "
        with pytest.raises(ValueError) as exc:
            load_instance(path)
        assert str(exc.value).startswith(where)
        assert message in str(exc.value)

    def test_comments_and_blank_lines_skipped(self, tmp_path, instance):
        path = tmp_path / "commented.txt"
        lines = _instance_lines(instance, tmp_path)
        path.write_text("# header\n\n" + "\n\n".join(lines) + "\n")
        loaded = load_instance(path)
        assert all(np.array_equal(a, b) for a, b in zip(loaded.noises, instance.noises))
