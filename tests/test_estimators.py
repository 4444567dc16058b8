"""Tests for the augmented Kalman engine and the three frequency trackers."""

import dataclasses
import math

import numpy as np
import pytest
from dense_reference import (
    augment,
    complex_normal,
    full,
    hconj,
    inv,
    jacobian,
    matmul,
    matvec,
    max_cond,
    observation,
    random_covariance,
    term_rows,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import gridfreq.analysis
import gridfreq.estimators
import gridfreq.network
from gridfreq.cli import _clock_columns, _trace_table, _write_csv
from gridfreq.estimators import (
    COND_LIMIT,
    FLAG_NEGATIVE_IM_H,
    FLAG_SEQUENCE_DOMINANCE,
    FilterDegenerateError,
    StateSpaceModel,
    _diagonal,
    _StepPlan,
    lss_model,
    nss_model,
    run_filter,
    shared_increment_model,
    wlss_model,
)
from gridfreq.network import reference_network, run_distributed
from gridfreq.signals import (
    Scenario,
    ScenarioSegment,
    add_noise,
    clarke_arrays,
    generate_arrays,
)

FS = 1000.0


def make_scenario(amps=(1.0, 1.0, 1.0), f_hz=50.0, duration=1.0, offs=(0.0, 0.0, 0.0)):
    return Scenario(
        [ScenarioSegment(0.0, duration, f_hz, amplitudes=amps, phase_offsets_rad=offs)],
        sample_rate_hz=FS,
        duration_s=duration,
    )


def clarke_series(scn, seed=None, snr_db=None):
    return clarke_arrays(add_noise(generate_arrays(scn), seed, snr_db))[1]


def plan_step(model, x, m, y, h=None):
    """One step of a fresh plan over the rows of the state ``x`` (n, rows), from
    the covariance's top block row ``m`` (n, 2n, rows) on the observations ``y``
    (1, rows).  Returns the step's output."""
    return _StepPlan(model, x.shape[1:]).step(x, m, y, h)


def step(model, state, y, h=None):
    """One step of ``state = (x, [M11 M12])`` on the observations ``y``, one per
    row; the posterior pair."""
    out = plan_step(model, *state, np.reshape(y, (1, -1)), h)
    return out.x, out.m


def start(model, v0):
    """A model's start from one observation: the state (n, 1) and ``[M11 M12]`` (n, 2n, 1)."""
    x, m = model.initial_state(np.atleast_1d(v0))
    return x, m[..., None]


def wirtinger_jacobian(f, x, eps=1e-7):
    """Central differences for the Wirtinger pair (df/dx, df/dconj(x)).

    With x_j = a + ib, df/dx_j = (df/da - i df/db) / 2 and
    df/dconj(x_j) = (df/da + i df/db) / 2.
    """
    n = x.size
    d_re = np.zeros((n, n), dtype=complex)
    d_im = np.zeros((n, n), dtype=complex)
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        d_re[:, j] = (f(x + e) - f(x - e)) / (2 * eps)
        d_im[:, j] = (f(x + 1j * e) - f(x - 1j * e)) / (2 * eps)
    return (d_re - 1j * d_im) / 2, (d_re + 1j * d_im) / 2


class TestJacobians:
    @pytest.mark.parametrize("factory", [lss_model, wlss_model, nss_model, shared_increment_model])
    def test_matches_finite_differences(self, factory):
        model = factory(FS)
        rng = np.random.default_rng(17)
        n = model.Cu.shape[0]
        for _ in range(5):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            analytic = term_rows(model.jacobian_A(x[:, None]), n, 2 * n).reshape(n, 2 * n)
            d_x, d_conj = wirtinger_jacobian(lambda x: model.f_a(x[:, None])[:, 0], x)
            np.testing.assert_allclose(analytic[:, :n], d_x, rtol=1e-6, atol=1e-8)
            np.testing.assert_allclose(analytic[:, n:], d_conj, rtol=1e-6, atol=1e-8)


def dense_parts(model, state, y, h=None):
    """The engine's algorithm written densely, on materialized 2n x 2n matrices.

    No block products, a generic matrix inverse, and both halves of the state
    updated.  ``h`` is the observation row, by default the model's own.
    Returns every intermediate by name, in the step's layout.
    """
    x, m = state
    n = len(x)
    x_pred = augment(model.f_a(x))
    a = jacobian(model.jacobian_A(x), n)
    h = observation(model.observe_H if h is None else h, n)
    m_prior = matmul(matmul(a, full(m)), hconj(a)) + full(model.Cu)[..., None]
    s = matmul(matmul(h, m_prior), hconj(h)) + full(model.Cn)[..., None]
    gain = matmul(matmul(m_prior, hconj(h)), inv(s))
    h_x = matvec(h, x_pred)
    innov = augment(y) - h_x
    correction = matvec(gain, innov)
    m_post = matmul(np.eye(2 * n)[..., None] - matmul(gain, h), m_prior)
    return dict(
        x_pred=x_pred, h_x=h_x, m_prior=m_prior, s=s, gain=gain, innov=innov,
        correction=correction, m_post=m_post,
    )


def dense_step(model, state, y, h=None):
    """Reference step on materialized 2n x 2n matrices.

    Returns (x_post, M_post), the largest magnitude among the operands each
    was last computed from (the scale rounding errors are relative to) and
    the largest condition number of S (the factor by which the gain
    amplifies them).
    """
    d = dense_parts(model, state, y, h)
    x_pred, correction, m_post = d["x_pred"], d["correction"], d["m_post"]
    scales = (max(np.max(np.abs(x_pred)), np.max(np.abs(correction))), np.max(np.abs(d["m_prior"])))
    return x_pred + correction, (m_post + hconj(m_post)) / 2, scales, max_cond(d["s"])


def _assert_close(got, want, scale, cond):
    # 1e-12 relative; an ill-conditioned S allows 10 ulp-sized errors per unit of cond(S)
    assert np.max(np.abs(got - want)) <= max(1e-12, 1e-15 * cond) * scale


class TestBlockStepMatchesDense:
    """The block-form step equals the dense step on random structured inputs."""

    @pytest.mark.parametrize("name", ["lss", "wlss", "nss", "shared_increment"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 16))
    def test_random_structured_states(self, name, seed, rows):
        model, state, y, h = random_step_inputs(name, seed, rows)
        out = plan_step(model, *state, y, h)
        x_post, m_post, (x_scale, m_scale), cond = dense_step(model, state, y, h)
        _assert_close(augment(out.x), x_post, x_scale, cond)
        _assert_close(full(out.m), m_post, m_scale, cond)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 16),
        order=st.permutations(range(8)),
        scalars=st.sets(st.integers(0, 7), max_size=3),
    )
    def test_every_jacobian_entry_as_a_term(self, seed, rows, order, scalars):
        # a random n = 2 model that declares all 2n·n entries of [A11 A12],
        # conjugate-half columns included, in any order, some as scalars (1.0
        # among them), and an observation row on both halves: the generic
        # term loops against the dense step
        rng = np.random.default_rng(seed)
        entries = [(r, c) for r in range(2) for c in range(4)]
        values = [complex_normal(rng, (rows,)) for _ in entries]
        for i in scalars:
            values[i] = 1.0 if i == min(scalars) else complex(complex_normal(rng, ()))
        self.check_generic(rng, rows, tuple((*entries[i], values[i]) for i in order))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), row=st.sampled_from([0, 1]))
    def test_a_row_without_terms_is_zero(self, seed, row):
        rng = np.random.default_rng(seed)
        terms = tuple((row, c, complex_normal(rng, (3,))) for c in (0, 3))
        self.check_generic(rng, 3, terms)

    @staticmethod
    def check_generic(rng, rows, terms):
        """An n = 2 linear model with Jacobian ``terms`` and a random observation row
        on both halves, stepped by a plan and by the dense reference."""
        h = tuple((c, complex_normal(rng, (rows,))) for c in range(4))
        a_top = term_rows(terms, 2, 4)
        model = StateSpaceModel(
            name="generic", f_a=lambda x: matvec(a_top, augment(x)),
            jacobian_A=lambda x: terms, observe_H=None,
            extract_freq=None, Cu=_diagonal([1e-3, 2e-3]),
            Cn=_diagonal([1e-2]), initial_state=None,
        )
        state = complex_normal(rng, (2, rows)), random_covariance(rng, rows, 2)
        y = complex_normal(rng, (1, rows))
        out = plan_step(model, *state, y, h)
        x_post, m_post, (x_scale, m_scale), cond = dense_step(model, state, y, h)
        _assert_close(augment(out.x), x_post, x_scale, cond)
        _assert_close(full(out.m), m_post, m_scale, cond)


def random_step_inputs(name, seed, rows):
    """A model, a state ``(x, [M11 M12])`` of ``rows`` rows with a structured
    Hermitian positive definite covariance, an observation and the observation
    row (None for a model with its own)."""
    rng = np.random.default_rng(seed)
    h = None
    if name == "shared_increment":
        model = shared_increment_model(FS, snr_db=30.0)
        h = ((0, complex_normal(rng, (rows,))), (1, complex_normal(rng, (rows,))))
    else:
        factory = {"lss": lss_model, "wlss": wlss_model, "nss": nss_model}[name]
        model = factory(FS, snr_db=30.0)
    n = model.Cu.shape[0]
    m = random_covariance(rng, rows, n)
    state = complex_normal(rng, (n, rows)), m
    return model, state, complex_normal(rng, (1, rows)), h


class TestDiagnosticsMatchDense:
    """The diagnostics the error recursion reads equal the dense step's."""

    @pytest.mark.parametrize("name", ["lss", "wlss", "nss", "shared_increment"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 16))
    def test_gain_prior_and_innovation(self, name, seed, rows):
        model, state, y, h = random_step_inputs(name, seed, rows)
        out = plan_step(model, *state, y, h)
        d = dense_parts(model, state, y, h)
        cond = max_cond(d["s"])
        innov_scale = max(np.max(np.abs(d["innov"])), np.max(np.abs(d["h_x"])))
        _assert_close(augment(out.innov), d["innov"], innov_scale, 1.0)
        _assert_close(full(out.p), d["m_prior"], np.max(np.abs(d["m_prior"])), 1.0)
        _assert_close(full(out.k), d["gain"], np.max(np.abs(d["gain"])), cond)


#: the row of a 12-row batch that the layout test also steps on its own
ROW = 6


def _row_inputs(state, y, h, scalar_h):
    """Row ROW of the step inputs as a batch of one, through views.

    With ``scalar_h`` an observation-row value is a numpy scalar, as the
    hand-written network loops in the tests pass it."""

    def pick(a):
        return a[..., ROW : ROW + 1]

    h = None if h is None else tuple((c, v[ROW] if scalar_h else pick(v)) for c, v in h)
    return (pick(state[0]), pick(state[1])), pick(y), h


class TestLayoutIndependence:
    """A row steps to the same bits alone, in any batch, from any memory layout."""

    @pytest.mark.parametrize("name", ["lss", "wlss", "nss", "shared_increment"])
    @pytest.mark.parametrize("seed", range(4))
    def test_row_is_bit_identical_in_every_layout(self, name, seed):
        model, state, y, h = random_step_inputs(name, seed, 12)
        # entries contiguous per row: the memory order the diffusion leaves the state in
        other = tuple(np.asfortranarray(a) for a in state)
        assert not other[1].flags.c_contiguous
        ways = {
            "batch (), scalar row": (_row_inputs(state, y, h, True), (), 0),
            "(1,)": (_row_inputs(state, y, h, False), (1,), 0),
            "(1, 1)": (_row_inputs(state, y, h, False), (1, 1), 0),
            "row of (3, 4)": ((state, y, h), (3, 4), ROW),
            "entries contiguous": ((other, y, h), (3, 4), ROW),
        }
        results = {}
        for way, ((st, obs, row_h), batch, at) in ways.items():
            plan, outputs = _StepPlan(model, batch), []
            for _ in range(2):  # the second step starts from the layout the first left
                out = plan.step(*st, obs, row_h)
                st = out.x, out.m
                outputs += [a[..., at] for a in (out.x, out.m, out.k, out.innov, out.p)]
            results[way] = outputs
        for way, outputs in results.items():
            for got, want in zip(outputs, results["batch (), scalar row"]):
                assert got.shape == want.shape and np.array_equal(got, want), way


class TestSymmetrisedPosterior:
    @pytest.mark.parametrize("batch", [(), (3,), (2, 4)])
    def test_shared_increment_m11_comes_out_real(self, batch):
        # at n = 1 the transpose of M_post is M_post itself: block11 must come
        # out as its Hermitian part, real, from a prior with an imaginary part
        plan = _StepPlan(shared_increment_model(FS, snr_db=30.0), batch)
        ones = np.ones((1, 1, plan.rows))
        m = np.concatenate([(0.1 + 1e-3j) * ones, (0.02 + 0.01j) * ones], axis=1)
        x = np.exp(2j * math.pi * 50.0 / FS) * ones[0]
        h = ((0, (1.0 + 0.5j) * ones[0, 0]), (1, (0.1 - 0.2j) * ones[0, 0]))
        m_post = plan.step(x, m, (0.9 + 0.3j) * ones[0], h).m
        assert np.all(m_post[:, :1].imag == 0)
        assert np.all(m_post[:, :1].real > 0)


class TestEngine:
    def test_scalar_gain_matches_hand_kalman(self):
        # Identity model, identity observation, Cu = 0, Cn = I: one update
        # from covariance m*I must use gain m/(m+1).
        model = StateSpaceModel(
            name="unit",
            f_a=lambda x: x,
            jacobian_A=lambda x: ((0, 0, 1.0),),
            observe_H=((0, 1.0),),
            extract_freq=lambda x: (np.zeros(x.shape[1:]), np.zeros(x.shape[1:], int)),
            Cu=_diagonal([0.0]),
            Cn=_diagonal([1.0]),
            initial_state=None,
        )
        m0 = 0.5
        st = np.array([[0.0 + 0j]]), _diagonal([m0])[..., None]
        y = 1.0 + 0j
        x, m = step(model, st, y)
        gain = m0 / (m0 + 1.0)
        assert x[0, 0] == pytest.approx(gain * y, abs=1e-12)
        assert m[0, 0, 0] == pytest.approx((1 - gain) * m0, abs=1e-12)

    def test_results_keep_the_checked_invariants(self):
        # the step leaves complex128 top block rows over the plan's rows, also when
        # one covariance (n, 2n, 1) broadcasts against a batch of states
        model = nss_model(1000.0, snr_db=30.0)
        plan = _StepPlan(model, (2, 3))
        m = _diagonal([0.1, 0.1, 0.1])[..., None]
        out = plan.step(np.full((3, plan.rows), 0.5 + 0.1j), m, np.ones((1, plan.rows)))
        assert out.x.dtype == np.complex128 and out.x.shape == (3, 6)
        for a, width in ((out.m, 6), (out.k, 2), (out.p, 6)):
            assert a.dtype == np.complex128
            assert a.shape == (3, width, 6)

    def test_diagonal_builder(self):
        m = _diagonal([1e-6, 1e-4])
        assert m.shape == (2, 4) and m.dtype == np.complex128
        full_m = full(m)
        np.testing.assert_array_equal(np.diag(full_m), [1e-6, 1e-4, 1e-6, 1e-4])
        assert np.count_nonzero(full_m - np.diag(np.diag(full_m))) == 0

    def test_step_preserves_structure_and_psd(self):
        scn = make_scenario(amps=(0.2, 1.0, 1.0))
        v = clarke_series(scn, seed=1, snr_db=30.0)
        model = nss_model(FS, snr_db=30.0)
        st = start(model, v[0])
        for k in range(1, 300):
            st = step(model, st, v[k])
        # covariance block must stay Hermitian PSD, pseudo block symmetric
        m11, m12 = st[1][:, :3, 0], st[1][:, 3:, 0]
        eigs = np.linalg.eigvalsh(m11)
        assert eigs.min() >= -1e-10
        np.testing.assert_allclose(m12, m12.T, atol=1e-12)

    def test_lss_pseudo_covariance_stays_exactly_zero(self):
        # the lss model has no conjugate terms: block12 of every covariance is 0, not small
        v = clarke_series(make_scenario(amps=(0.2, 1.0, 1.0), duration=0.401), seed=2, snr_db=30.0)
        model = lss_model(FS, snr_db=30.0)
        st = start(model, v[0])
        for k in range(1, 401):
            out = plan_step(model, *st, v[None, k : k + 1])
            st = out.x, out.m
            assert np.all(out.p[:, 2:] == 0) and np.all(st[1][:, 2:] == 0), f"tick {k}"

    def test_lss_fixed_point_on_truth(self):
        # Starting exactly at the true state of a balanced noiseless signal,
        # the innovation vanishes and one step returns the true next state.
        scn = make_scenario()
        v = clarke_series(scn)
        x_true = np.exp(2j * np.pi * 50.0 / FS)
        model = lss_model(FS)
        st = np.array([[x_true], [v[0]]]), _diagonal([0.1, 0.1])[..., None]
        x, _ = step(model, st, v[1])
        assert abs(x[0, 0] - x_true) < 1e-10
        assert abs(x[1, 0] - v[1]) < 1e-10

    def test_degenerate_innovation_covariance_raises(self):
        model = StateSpaceModel(
            name="degenerate",
            f_a=lambda x: x,
            jacobian_A=lambda x: ((0, 0, 1.0),),
            observe_H=((0, 0.0),),  # S = Cn = 0
            extract_freq=lambda x: (np.zeros(x.shape[1:]), np.zeros(x.shape[1:], int)),
            Cu=_diagonal([0.0]),
            Cn=_diagonal([0.0]),
            initial_state=None,
        )
        st = np.array([[1.0 + 0j]]), _diagonal([0.1])[..., None]
        with pytest.raises(FilterDegenerateError, match="filter degenerate"):
            step(model, st, 1.0 + 0j)

    def test_degenerate_error_names_the_first_row(self):
        # S = M in this model, so the rows whose covariance is zero degenerate
        model = StateSpaceModel(
            name="unit", f_a=lambda x: x, jacobian_A=lambda x: ((0, 0, 1.0),),
            observe_H=((0, 1.0),),
            extract_freq=None, Cu=_diagonal([0.0]),
            Cn=_diagonal([0.0]), initial_state=None,
        )
        m = np.array([0.1, 0.1, 0.0, 0.1, 0.0])
        top = np.stack([m, 0 * m])[None].astype(complex)  # (1, 2, 5)
        x = np.ones((1, 5), complex)
        with pytest.raises(FilterDegenerateError) as exc:
            _StepPlan(model, (5,)).step(x, top, x)
        assert exc.value.row == (2,)
        with pytest.raises(FilterDegenerateError) as exc:
            _StepPlan(model, (1, 5)).step(x, top, x)
        assert exc.value.row == (0, 2)


#: a row of the condition test: s11 and |s12| of the innovation covariance,
#: drawn to hit lo < 0, lo == 0, NaN, +-inf and hi / lo a few ulps from the limit
@st.composite
def s_rows(draw):
    s11 = draw(st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -2.5, math.nan, math.inf, -math.inf]),
        st.floats(1e-200, 1e200),
    ))
    kind = draw(st.sampled_from(["special", "lo zero", "near limit", "inside", "lo negative"]))
    if kind == "special":
        return s11, draw(st.sampled_from([0.0, math.nan, math.inf]))
    if kind == "lo zero":
        return s11, abs(s11)
    if kind == "near limit":
        # hi / lo = limit at |s12| = s11 (L - 1) / (L + 1); step a few ulps either way
        a12 = abs(s11) * (COND_LIMIT - 1) / (COND_LIMIT + 1)
        ulps = draw(st.integers(-4, 4))
        for _ in range(abs(ulps)):
            a12 = np.nextafter(a12, math.copysign(math.inf, ulps))
        return s11, float(a12)
    return s11, abs(s11) * draw(st.floats(0, 1) if kind == "inside" else st.floats(1, 10))


class TestConditionCheck:
    """The step's one-pass condition test decides as the full rule does."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(s_rows(), min_size=1, max_size=6), two_d=st.booleans())
    def test_raises_exactly_when_a_row_fails(self, rows, two_d):
        # a unit model with Cu = Cn = 0, so S = M: [m11 m12] = [s11, |s12|]
        model = StateSpaceModel(
            name="unit", f_a=lambda x: x, jacobian_A=lambda x: ((0, 0, 1.0),),
            observe_H=((0, 1.0),), extract_freq=None, Cu=_diagonal([0.0]),
            Cn=_diagonal([0.0]), initial_state=None,
        )
        batch = (2, len(rows)) if two_d else (len(rows),)
        rows = rows + rows[::-1] if two_d else rows  # the second batch row reversed
        s11, a12 = (np.array([r[i] for r in rows]) for i in (0, 1))
        m = np.stack([s11, a12]).astype(complex)[None]  # (1, 2, rows)
        with np.errstate(all="ignore"):
            s11, a12 = 0.0 + s11, np.abs(a12)  # S's s11 is Cn's 0 plus m11
            lo, hi = s11 - a12, s11 + a12
            bad = ~(hi / np.where(lo > 0, lo, np.nan) <= COND_LIMIT)
            plan = _StepPlan(model, batch)
            x = y = np.ones((1, s11.size), complex)
            if not bad.any():
                plan.step(x, m, y)
                return
            with pytest.raises(FilterDegenerateError) as exc:
                plan.step(x, m, y)
        assert exc.value.row == tuple(int(i) for i in np.argwhere(bad.reshape(batch))[0])


class TestTermProgram:
    """The step's term program, resolved on a plan's first step, serves every later step."""

    @staticmethod
    def model():
        # n = 2: row 0 has a unit, a non-unit scalar and a conjugate-half column
        # (3 reads conj(x1)); row 1 has no terms
        def f_a(x):
            f = np.zeros_like(x)
            f[0] = x[0] + (2.5 - 0.5j) * x[1] + 0.5 * np.conj(x[1]) ** 2
            return f

        return StateSpaceModel(
            name="program", f_a=f_a,
            jacobian_A=lambda x: ((0, 0, 1.0), (0, 1, 2.5 - 0.5j), (0, 3, np.conj(x[1]))),
            observe_H=((0, 1.0), (3, 0.5j)), extract_freq=None,
            Cu=_diagonal([1e-3, 2e-3]), Cn=_diagonal([1e-2]), initial_state=None,
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_and_every_batch_layout(self, seed):
        rng = np.random.default_rng(seed)
        model = self.model()
        x, m = complex_normal(rng, (2, 6)), random_covariance(rng, 6, 2)
        ys = complex_normal(rng, (2, 1, 6))
        results = {}
        for batch in ((1,), (3, 2), (5,)):
            rows = math.prod(batch)
            plan = _StepPlan(model, batch)
            state = x[:, :rows], m[..., :rows]
            outs = []
            for y in ys[..., :rows]:  # two steps: the second reuses the first's program
                out = plan.step(*state, y)
                x_post, m_post, (x_scale, m_scale), cond = dense_step(model, state, y)
                state = out.x, out.m
                _assert_close(augment(state[0]), x_post, x_scale, cond)
                _assert_close(full(state[1]), m_post, m_scale, cond)
                outs += [out.m, out.k, out.p, out.innov, out.x]
            results[batch] = outs
        for batch, outs in results.items():
            for got, want in zip(outs, results[(3, 2)]):
                assert np.array_equal(got, want[..., : got.shape[-1]]), batch

    @pytest.mark.parametrize("factory", [lss_model, wlss_model, nss_model, shared_increment_model])
    def test_bundled_models_keep_their_layout(self, factory):
        # which (row, column) terms a model returns, and which of their values are
        # arrays and which constants, does not depend on the state
        model = factory(FS)
        rng = np.random.default_rng(5)
        n = model.Cu.shape[0]

        def layout(x):
            return [(r, c, "array" if isinstance(v, np.ndarray) else v)
                    for r, c, v in model.jacobian_A(x)]

        assert layout(complex_normal(rng, (n, 4))) == layout(complex_normal(rng, (n, 4)))


class TestFrequencyExtraction:
    def test_lss_reads_angle(self):
        model = lss_model(FS)
        x = np.array([np.exp(2j * np.pi * 50.0 / FS), 1.0])
        f, flags = model.extract_freq(x)
        assert float(f) == pytest.approx(50.0, abs=1e-9)
        assert int(flags) == 0

    def test_lss_zero_increment_flagged(self):
        model = lss_model(FS)
        f, flags = model.extract_freq(np.array([0.0, 1.0], complex))
        assert math.isnan(float(f))
        assert int(flags) == 1

    def test_wlss_balanced_weights(self):
        # h = e^{j pi/6}, g = 0 inverts to arcsin(1/2)/(2 pi dT) = 1000/12 Hz.
        model = wlss_model(FS)
        x = np.array([np.exp(1j * np.pi / 6), 0.0, 1.0])
        f, flags = model.extract_freq(x)
        assert float(f) == pytest.approx(1000.0 / 12.0, abs=1e-9)
        assert int(flags) == 0

    def test_wlss_boundary_gives_zero(self):
        # |g| equal to Im(h): radicand is exactly zero, frequency reads zero.
        model = wlss_model(FS)
        h = 0.8 + 0.3j
        x = np.array([h, 0.3j, 1.0])
        f, flags = model.extract_freq(x)
        assert float(f) == pytest.approx(0.0, abs=1e-12)
        assert int(flags) == 0

    def test_wlss_guard_flags(self):
        model = wlss_model(FS)
        f, flags = model.extract_freq(np.array([0.9 + 0.1j, 0.5, 1.0]))
        assert int(flags) & FLAG_SEQUENCE_DOMINANCE
        assert float(f) == pytest.approx(0.0, abs=1e-12)  # clamped radicand
        _, flags = model.extract_freq(np.array([0.9 - 0.2j, 0.0, 1.0]))
        assert int(flags) & FLAG_NEGATIVE_IM_H

    def test_nss_reads_angle_without_guards(self):
        model = nss_model(FS)
        x = np.array([np.exp(2j * np.pi * 52.0 / FS), 0.9, 0.3j])
        f, flags = model.extract_freq(x)
        assert float(f) == pytest.approx(52.0, abs=1e-9)
        assert int(flags) == 0

    def test_principal_branch_range(self):
        model = nss_model(FS)
        for f_true in (-499.0, -100.0, 499.0, 500.0):
            x = np.array([np.exp(2j * np.pi * f_true / FS), 1.0, 0.0])
            f, _ = model.extract_freq(x)
            assert -FS / 2 < float(f) <= FS / 2
            expected = f_true if f_true <= FS / 2 else f_true - FS
            assert float(f) == pytest.approx(expected, abs=1e-9)


class TestRunFilter:
    def test_trace_shape_and_time(self):
        scn = make_scenario(duration=0.3)
        v = clarke_series(scn, seed=2, snr_db=30.0)
        trace = run_filter(lss_model(FS, snr_db=30.0), v, FS, f_true=scn.true_freq()).trace()
        np.testing.assert_array_equal(trace.t_s, np.arange(scn.n_samples) / FS)
        assert trace.t_s[10] == pytest.approx(0.010)
        assert trace.f_true_hz is not None

    def test_fortran_ordered_samples_run_bit_for_bit(self):
        # the tick loop reads the caller's samples through views, whatever their layout
        scn = make_scenario(amps=(0.2, 1.0, 1.0), duration=0.3)
        series = np.stack([clarke_series(scn, seed=s, snr_db=30.0) for s in (1, 2, 3)])
        model = nss_model(FS, snr_db=30.0)
        c_run = run_filter(model, series, FS, detail=3)
        f_run = run_filter(model, np.asfortranarray(series), FS, detail=3)
        assert c_run.flags.dtype == np.uint8
        for field in ("f_hat_hz", "flags", "states", "innovation_power"):
            np.testing.assert_array_equal(getattr(f_run, field), getattr(c_run, field))

    def test_lss_converges_on_balanced_noiseless(self):
        scn = make_scenario(duration=1.0)
        trace = run_filter(lss_model(FS), clarke_series(scn), FS).trace()
        tail = trace.f_hat_hz[-200:]
        assert np.max(np.abs(tail - 50.0)) < 1e-6

    def test_wlss_and_nss_converge_on_unbalanced_noiseless(self):
        scn = make_scenario(amps=(0.2, 1.0, 1.0), f_hz=52.0, duration=1.5)
        v = clarke_series(scn)
        for factory in (wlss_model, nss_model):
            trace = run_filter(factory(FS), v, FS).trace()
            tail = trace.f_hat_hz[-200:]
            assert np.max(np.abs(tail - 52.0)) < 1e-3, factory.__name__

    def test_nss_recovers_sequence_ratio_under_sag(self):
        # Steady-state sequence-voltage magnitudes should reproduce the
        # analytic amplitude ratio |B|/|A| = 0.326599/0.898146.
        scn = make_scenario(amps=(0.2, 1.0, 1.0), duration=1.5)
        trace = run_filter(nss_model(FS), clarke_series(scn), FS, detail=True).trace()
        ratio = np.abs(trace.states[-1, 2]) / np.abs(trace.states[-1, 1])
        assert ratio == pytest.approx(0.326599 / 0.898146, abs=1e-3)

    def test_nss_steps_from_detuned_init(self):
        # Initialized 1 Hz off, the tracker reaches the true frequency within
        # 0.2 s on clean data.
        scn = make_scenario(duration=0.5)
        v = clarke_series(scn)
        model = nss_model(FS)
        x0 = np.array([np.exp(2j * math.pi * 49.0 / FS), v[0], 0.0])
        init = x0[:, None], _diagonal([0.1, 0.1, 0.1])
        model = dataclasses.replace(model, initial_state=lambda _: init)
        trace = run_filter(model, v, FS, detail=True).trace()
        np.testing.assert_array_equal(trace.states[0], x0)
        settled = trace.f_hat_hz[200:]
        assert np.max(np.abs(settled - 50.0)) < 1e-3

    @pytest.mark.parametrize(
        "run",
        [
            lambda model, v: run_filter(model, v, FS),
            lambda model, v: run_filter(model, np.stack([v, v]), FS),
        ],
        ids=["1-d", "batch"],
    )
    def test_degenerate_error_carries_tick(self, run):
        model = lss_model(FS)
        bad = StateSpaceModel(
            name="bad", f_a=model.f_a, jacobian_A=model.jacobian_A,
            observe_H=((1, 0.0),),
            extract_freq=model.extract_freq,
            Cu=_diagonal([0.0, 0.0]),
            Cn=_diagonal([0.0]),
            initial_state=model.initial_state,
        )
        v = clarke_series(make_scenario(duration=0.05))
        with pytest.raises(FilterDegenerateError, match="tick 1"):
            run(bad, v)

    def test_degenerate_error_names_its_row(self):
        model = dataclasses.replace(
            lss_model(FS), Cu=_diagonal([0.0, 0.0]), Cn=_diagonal([0.0]),
        )
        v = np.stack([clarke_series(make_scenario(duration=0.05))] * 3)
        # row 1 starts from a zero state, so its prior, and with it S, is 0 at tick 1
        x0 = np.stack([v[:, 0]] * 2)
        x0[:, 1] = 0
        model = dataclasses.replace(model, initial_state=lambda _: (x0, _diagonal([0.1, 0.1])))
        with pytest.raises(FilterDegenerateError, match="^tick 1: row 1: filter degenerate"):
            run_filter(model, v, FS)

    @pytest.mark.parametrize("rows, at", [(1, (0, 5)), (3, (2, 7))], ids=["1-d", "batch"])
    def test_non_finite_sample_rejected_before_any_step(self, monkeypatch, rows, at):
        v = np.stack([clarke_series(make_scenario(duration=0.05))] * rows)
        v[at] = np.nan if rows == 1 else complex(1.0, np.inf)
        steps = []
        monkeypatch.setattr(gridfreq.estimators._StepPlan, "step", lambda *a: steps.append(a))
        with pytest.raises(ValueError, match=f"row {at[0]}, tick {at[1]}: non-finite"):
            run_filter(lss_model(FS), v[0] if rows == 1 else v, FS)
        assert not steps


class TestBatchRunner:
    @settings(max_examples=20, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        factory=st.sampled_from([lss_model, wlss_model, nss_model]),
    )
    def test_matches_sequential_runs(self, seeds, factory):
        # every batch row, detail included, is exactly the run of that row alone
        scn = make_scenario(amps=(0.2, 1.0, 1.0), duration=0.1)
        series = np.stack([clarke_series(scn, seed=s, snr_db=30.0) for s in seeds])
        model = factory(FS, snr_db=30.0)
        batch = run_filter(model, series, FS, detail=len(seeds))
        for i in range(len(seeds)):
            alone = run_filter(model, series[i], FS, detail=True)
            for field in ("f_hat_hz", "flags", "states", "innovation_power"):
                np.testing.assert_array_equal(getattr(batch, field)[i], getattr(alone, field)[0])

    def test_detail_keeps_the_leading_rows(self):
        # detail=1 keeps row 0's states; the other rows' traces carry f_hat and flags only
        scn = make_scenario(amps=(0.2, 1.0, 1.0), duration=0.05)
        series = np.stack([clarke_series(scn, seed=s, snr_db=30.0) for s in (4, 5, 6)])
        model = nss_model(FS, snr_db=30.0)
        run = run_filter(model, series, FS, f_true=scn.true_freq(), detail=1)
        full = run_filter(model, series, FS, detail=3)
        assert run.states.shape == (1, scn.n_samples, 3)
        assert run.innovation_power.shape == (1, scn.n_samples)
        np.testing.assert_array_equal(run.trace(0).states, full.trace(0).states)
        np.testing.assert_array_equal(
            run.trace(0).innovation_power, full.trace(0).innovation_power
        )
        for row in (1, 2, -1):
            tr = run.trace(row)
            assert tr.states is None and tr.innovation_power is None
            np.testing.assert_array_equal(tr.f_hat_hz, full.f_hat_hz[row])
            np.testing.assert_array_equal(tr.flags, full.flags[row])
            np.testing.assert_array_equal(tr.f_true_hz, scn.true_freq())
        with pytest.raises(IndexError):
            run.trace(3)
        assert run_filter(model, series, FS, detail=True).states.shape[0] == 1
        assert run_filter(model, series, FS).states is None

    def test_negative_detail_rejected(self):
        series = clarke_series(make_scenario(duration=0.05))
        with pytest.raises(ValueError, match="detail must be at least 0, got -1"):
            run_filter(nss_model(FS), series, FS, detail=-1)


class TestSharedIncrementModel:
    def test_two_stage_tracks_frequency(self):
        # Feed the shared model observation matrices from the sequence
        # tracker, mirroring how a node combines the two filters.
        scn = make_scenario(amps=(0.2, 1.0, 1.0), duration=1.0)
        v = clarke_series(scn)
        aux_model = nss_model(FS)
        shared = shared_increment_model(FS)
        aux = start(aux_model, v[0])
        st = start(shared, v[0])
        for k in range(1, v.size):
            vp, vm = aux[0][1], aux[0][2]
            aux = step(aux_model, aux, v[k])
            st = step(shared, st, v[k], ((0, vp), (1, vm)))
        f, _ = shared.extract_freq(st[0])
        assert f[0] == pytest.approx(50.0, abs=1e-3)

    def test_sequence_observation_structure(self):
        # the row ((0, v+), (1, v-)) maps x to v+ x + v- conj(x): column 1 is conj(x)
        vp, vm = 0.3 + 1j, -0.2j
        shared = shared_increment_model(FS)
        x = np.array([[0.8 - 0.6j, 1j, -2.0]])
        y = np.array([[0.5j, 1.0, 0.25 - 1j]])
        out = plan_step(shared, x, _diagonal([0.1])[..., None], y, ((0, vp), (1, vm)))
        want = y - (vp * x + vm * np.conj(x))
        np.testing.assert_allclose(out.innov, want, rtol=1e-15)
        h = observation(((0, vp), (1, vm)), 1)
        np.testing.assert_array_equal(h, [[vp, vm], [np.conj(vm), np.conj(vp)]])


class TestPlanPathMatchesStep:
    """A driver's plan, carrying the arrays its step left from tick to tick,
    steps to the bits of a fresh plan per tick fed copies of the state with
    the entries contiguous per row."""

    @pytest.mark.parametrize("batch", [(1, 7), (25, 7), (101,)], ids=["1x7", "25x7", "101"])
    @pytest.mark.parametrize("name", ["nss", "shared_increment"])
    def test_fifty_ticks(self, name, batch):
        scn = make_scenario(amps=(0.2, 1.0, 1.0), duration=0.051)
        rows = math.prod(batch)
        v = np.stack([clarke_series(scn, seed=s, snr_db=30.0) for s in range(rows)])
        ys = v.T[:, None]  # (ticks, 1, rows)
        model = (nss_model if name == "nss" else shared_increment_model)(FS, snr_db=30.0)
        x0, m0 = model.initial_state(v[:, 0])
        plan = _StepPlan(model, batch)
        arrays = state = x0, m0[..., None]
        for k in range(1, 51):
            # the shared model gets a per-tick row built from the previous observation
            h = None if name == "nss" else ((0, ys[k - 1, 0]), (1, 0.1j * ys[k - 1, 0]))
            out = plan.step(*arrays, ys[k], h)
            arrays = out.x, out.m
            fresh = _StepPlan(model, batch).step(*state, ys[k], h)
            state = np.asfortranarray(fresh.x), np.asfortranarray(fresh.m)
            for got, want in zip(out[:5], fresh[:5]):  # x, m, innov, k, p
                assert got.shape == want.shape and np.array_equal(got, want), f"tick {k}"


class TestNoMaterializeOnTheStepPath:
    """The step, both drivers and the network tick work on blocks and terms
    alone: only the theory forms full augmented matrices."""

    @pytest.fixture(autouse=True)
    def no_materialize(self, monkeypatch):
        def refuse(top):
            raise AssertionError("full matrix formed on the step path")

        monkeypatch.setattr(gridfreq.analysis, "_full", refuse)

    @pytest.mark.parametrize("factory", [lss_model, wlss_model, nss_model])
    def test_run_filter(self, factory):
        scn = make_scenario(amps=(0.2, 1.0, 1.0), duration=0.05)
        series = np.stack([clarke_series(scn, seed=s, snr_db=30.0) for s in (1, 2)])
        run = run_filter(factory(FS, snr_db=30.0), series, FS, detail=1)
        assert run.f_hat_hz.shape == (2, scn.n_samples)

    @pytest.mark.parametrize("mode", ["dfe", "distributed-acekf"])
    def test_run_distributed(self, mode):
        t, b = reference_network()
        scn = make_scenario(amps=(0.2, 1.0, 1.0), duration=0.05)
        run = run_distributed(t, scn, [0, 1], snr_db=30.0, mode=mode, assignment=b, detail=1)
        assert run.f_hat_hz.shape == (2, len(t.node_ids), scn.n_samples)

    def test_theory_forms_full_matrices(self):
        # the refusal above is live: the theory's start is where full matrices are formed
        t, b = reference_network()
        scn = make_scenario(duration=0.05)
        with pytest.raises(AssertionError, match="full matrix formed"):
            run_distributed(t, scn, [0], snr_db=30.0, assignment=b, theory=True)

    @pytest.mark.parametrize("mode", [None, "dfe", "distributed-acekf"])
    def test_ticks_wrap_nothing(self, monkeypatch, mode):
        # with detail=0 and no theory, every step takes and leaves plain arrays,
        # each covariance as its top block row (n, 2n, rows); the start's
        # covariance is one row that broadcasts
        real, steps = _StepPlan.step, []

        def step(plan, x, m, *args):
            out = real(plan, x, m, *args)
            n = out.x.shape[0]
            for a in (x, m, *out[:5]):
                assert type(a) is np.ndarray
            assert m.shape[:2] == (n, 2 * n) and m.shape[2] in (1, plan.rows)
            assert out.m.shape == out.p.shape == (n, 2 * n, plan.rows)
            steps.append(plan.model.name)
            return out

        monkeypatch.setattr(_StepPlan, "step", step)
        scn = make_scenario(amps=(0.2, 1.0, 1.0), duration=0.05)
        if mode is None:
            series = np.stack([clarke_series(scn, seed=s, snr_db=30.0) for s in (1, 2)])
            run = run_filter(nss_model(FS, snr_db=30.0), series, FS)
        else:
            t, b = reference_network()
            run = run_distributed(t, scn, [0, 1], snr_db=30.0, mode=mode, assignment=b)
        assert np.all(np.isfinite(run.f_hat_hz))
        assert len(steps) == (2 if mode == "dfe" else 1) * (scn.n_samples - 1)


def test_trace_csv_format(tmp_path):
    scn = make_scenario(duration=0.05)
    v = clarke_series(scn, seed=3, snr_db=30.0)
    trace = run_filter(lss_model(FS, snr_db=30.0), v, FS, f_true=scn.true_freq(), detail=True)
    path = tmp_path / "trace.csv"
    _, header, columns = _trace_table("trace.csv", trace.trace(), _clock_columns(trace.t_s))
    _write_csv(path, header, columns)
    lines = path.read_bytes().decode().split("\r\n")
    assert lines[0] == "k,t_s,f_hat_hz,f_true_hz,err_hz,innov_power,flags"
    assert lines[-1] == "" and len(lines) == 2 + scn.n_samples
    cells = lines[2].split(",")
    assert int(cells[0]) == 1
    assert float(cells[3]) == 50.0
    assert float(cells[4]) == pytest.approx(float(cells[2]) - 50.0, rel=1e-10)
    # a NaN truth gives NaN cells, not blanks
    blind = dataclasses.replace(trace.trace(), f_true_hz=np.full(scn.n_samples, np.nan))
    _write_csv(path, *_trace_table("trace.csv", blind, columns[:2])[1:])
    assert path.read_text().splitlines()[2].split(",")[3:5] == ["nan", "nan"]
