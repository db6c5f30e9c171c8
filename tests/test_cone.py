import csv
import math
import re
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import hammcert as hc
import hammcert.cone as cone_mod
from hammcert import (DiscreteState, c1_norm, cone_membership, constant_state,
                      falsify_bounds, state_from_csv, state_to_csv, zero_state)
from hammcert.cone import sample_cone_boundary_rng
from hammcert.quad import _panel_points
from conftest import trig_state


def parabola_state(num_panels=128):
    nodes = np.linspace(0, 1, num_panels + 1)
    return DiscreteState(nodes, (3 / 8 - nodes ** 2 / 2)[None, :], (-nodes)[None, :])


class TestNorms:
    def test_parabola(self):
        norms = c1_norm(parabola_state())
        assert norms.sup[0] == pytest.approx(0.375, abs=1e-12)
        assert norms.sup_deriv[0] == pytest.approx(1.0, abs=1e-12)
        assert norms.c1[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_state(self):
        norms = c1_norm(zero_state(2))
        assert norms.overall == 0.0

    def test_max_over_components(self):
        nodes = np.linspace(0, 1, 129)
        u = DiscreteState(nodes, np.vstack([nodes, 2 * nodes]),
                          np.vstack([np.ones(129), 2 * np.ones(129)]))
        assert c1_norm(u).overall == pytest.approx(2.0, abs=1e-12)

    def test_exact_at_nodes(self):
        u = trig_state(3)
        norms = c1_norm(u)
        assert norms.sup[0] >= np.max(np.abs(u.values[0])) - 1e-15


class TestInterpolation:
    def test_reproduces_cubics(self):
        # Hermite interpolation is exact for cubic polynomials
        rng = np.random.default_rng(9)
        nodes = np.linspace(0, 1, 17)
        for _ in range(20):
            c = rng.uniform(-2, 2, 4)
            p = np.polynomial.Polynomial(c)
            dp = p.deriv()
            u = DiscreteState(nodes, p(nodes)[None, :], dp(nodes)[None, :])
            xs = rng.uniform(0, 1, 200)
            assert np.max(np.abs(u.value(0, xs) - p(xs))) <= 1e-12
            assert np.max(np.abs(u.derivative(0, xs) - dp(xs))) <= 1e-12

    def test_derivative_matches_at_nodes(self):
        u = trig_state(4)
        got = u.derivative(0, u.nodes)
        assert np.max(np.abs(got - u.derivatives[0])) <= 1e-12

    def test_too_few_nodes_rejected(self):
        nodes = np.linspace(0, 1, 5)
        with pytest.raises(ValueError, match="at least 9"):
            DiscreteState(nodes, np.zeros((1, 5)), np.zeros((1, 5)))


class TestMembership:
    def test_constant_one_always_member(self, example_cc):
        u = constant_state([1.0, 1.0])
        verdict = cone_membership(u, example_cc)
        assert verdict.member
        assert verdict.margins[0] == pytest.approx(1 - example_cc[0].c, abs=1e-12)
        assert verdict.margins[1] == pytest.approx(1 - example_cc[1].c, abs=1e-12)

    def test_parabola_member(self, example_spec, example_cc):
        # 3/8 - t^2/2 stays above (1/3) * (3/8) on the window [0, 3/8]
        u = parabola_state()
        two = DiscreteState(u.nodes, np.vstack([u.values[0], np.zeros(129)]),
                            np.vstack([u.derivatives[0], np.zeros(129)]))
        assert cone_membership(two, example_cc).member

    def test_sign_changing_on_window_rejected(self, example_cc):
        nodes = np.linspace(0, 1, 129)
        vals = nodes - 0.5
        two = DiscreteState(nodes, np.vstack([vals, np.zeros(129)]),
                            np.vstack([np.ones(129), np.zeros(129)]))
        assert not cone_membership(two, example_cc).member

    def test_stack_rejected(self, example_cc):
        u = constant_state([1.0, 1.0])
        stack = DiscreteState(u.nodes, np.stack([u.values] * 3),
                              np.stack([u.derivatives] * 3))
        with pytest.raises(ValueError, match=r"^cone_membership takes one state, "
                                             r"not a stack of 3$"):
            cone_membership(stack, example_cc)

    def test_positive_scaling_invariance(self, example_spec, example_cc):
        u = sample_cone_boundary_rng(example_spec, example_cc, 1.0, np.random.default_rng(2))
        base = cone_membership(u, example_cc)
        for alpha in (0.1, 1.0, 10.0):
            v = DiscreteState(u.nodes, alpha * u.values, alpha * u.derivatives)
            got = cone_membership(v, example_cc)
            assert got.member
            for m_got, m_base in zip(got.margins, base.margins):
                assert m_got == pytest.approx(alpha * m_base, abs=1e-9)


class TestSampler:
    def test_membership_and_norm(self, example_spec, example_cc):
        for seed in range(25):
            u = sample_cone_boundary_rng(example_spec, example_cc, 1.0,
                                         np.random.default_rng(seed))
            assert cone_membership(u, example_cc).member
            assert abs(c1_norm(u).overall - 1.0) <= 1e-12

    def test_various_radii(self, example_spec, example_cc):
        for rho in (1e-3, 0.1, 2.0):
            u = sample_cone_boundary_rng(example_spec, example_cc, rho,
                                         np.random.default_rng(1))
            assert abs(c1_norm(u).overall - rho) <= 1e-12 * max(1, rho)

    def test_determinism(self, example_spec, example_cc):
        a = sample_cone_boundary_rng(example_spec, example_cc, 1.0, np.random.default_rng(77))
        b = sample_cone_boundary_rng(example_spec, example_cc, 1.0, np.random.default_rng(77))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.derivatives, b.derivatives)

    def test_degenerate_cone_gives_constants(self):
        # c = 1 forces positive constant components on the window
        import hammcert as hc
        from conftest import single_component_spec, FAST_OPT
        spec = single_component_spec(
            kernel={"k": "1", "dk_dt": "0*t", "breakpoints": [],
                    "moving_breakpoint": False},
            window=(0, 1), gammas=[])
        cc = hc.assemble_cone_constants(replace(spec, opt=FAST_OPT))
        assert cc[0].c == pytest.approx(1.0, abs=1e-12)
        u = sample_cone_boundary_rng(spec, cc, 1.0, np.random.default_rng(3))
        assert np.ptp(u.values[0]) == 0.0 and np.all(u.values[0] > 0)
        assert np.all(u.derivatives[0] == 0.0)
        assert abs(hc.c1_norm(u).overall - 1.0) <= 1e-12

    def test_rho_must_be_positive(self, example_spec, example_cc):
        for rho in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite number > 0"):
                sample_cone_boundary_rng(example_spec, example_cc, rho,
                                         np.random.default_rng(1))

    @pytest.mark.parametrize("size", [0, -1, True, 2.5, "2"])
    def test_size_is_an_integer_of_at_least_one(self, example_spec, example_cc, size):
        # 0 drew a stack of one, -1 raised numpy's ValueError, True and 2.5
        # bare TypeErrors
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match=rf"^size must be an integer >= 1, "
                                             rf"got {re.escape(repr(size))}$"):
            sample_cone_boundary_rng(example_spec, example_cc, 1.0, rng, size=size)
        assert rng.uniform() == np.random.default_rng(1).uniform()  # nothing drawn

    def test_size_one_is_a_stack_and_none_a_state(self, example_spec, example_cc):
        one = sample_cone_boundary_rng(example_spec, example_cc, 1.0,
                                       np.random.default_rng(4), size=np.int64(1))
        u = sample_cone_boundary_rng(example_spec, example_cc, 1.0,
                                     np.random.default_rng(4))
        assert one.stacked and one.values.shape == (1,) + u.values.shape
        assert not u.stacked and one.values[0].tobytes() == u.values.tobytes()

    def test_stack_is_its_states_drawn_one_at_a_time(self, example_spec, example_cc):
        rng = np.random.default_rng(21)
        stack = sample_cone_boundary_rng(example_spec, example_cc, 1.0, rng, size=5,
                                         ball=True)
        one_rng = np.random.default_rng(21)
        for k in range(5):
            u = sample_cone_boundary_rng(example_spec, example_cc, 1.0, one_rng,
                                         ball=True)
            assert stack.values[k].tobytes() == u.values.tobytes()
            assert stack.derivatives[k].tobytes() == u.derivatives.tobytes()
        assert rng.uniform() == one_rng.uniform()
        norms = c1_norm(stack)
        assert norms.overall.shape == (5,) and norms.sup.shape == (5, 2)
        assert norms.sup[2].tolist() == list(c1_norm(stack.row(2)).sup)

    @pytest.mark.parametrize("size", [None, 3])
    def test_degenerate_draw_raises(self, example_spec, example_cc, monkeypatch,
                                    size):
        # a state of C1 norm <= 1e-12 cannot be rescaled onto the sphere
        norms = cone_mod.c1_norm

        def degenerate(u):
            found = norms(u)
            overall = np.array(found.overall)
            overall.flat[-1] = 0.0
            return replace(found, overall=overall)

        monkeypatch.setattr(cone_mod, "c1_norm", degenerate)
        with pytest.raises(RuntimeError, match="degenerate boundary draw"):
            sample_cone_boundary_rng(example_spec, example_cc, 1.0,
                                     np.random.default_rng(8), size=size)

    def test_w1_within_declared_range(self, example_spec, example_cc):
        # the declared range [(1+e)^-1, e] must hold on sampled states
        lo, hi = 1 / (1 + math.e), math.e
        rng = np.random.default_rng(1234)
        w1 = example_spec.components[0].w
        for _ in range(200):
            u = sample_cone_boundary_rng(example_spec, example_cc, 1.0, rng)
            val = hc.eval_functional(w1, u, example_spec.quad)
            assert lo <= val <= hi


def _csv_rows(ts, u="1.0") -> str:
    """A one-component state file with nodes ts, u = u and u' = 0."""
    return "t,u1,du1\n" + "".join(f"{float(t)!r},{u},0.0\n" for t in ts)


class TestCsv:
    def test_round_trip(self, tmp_path, example_spec, example_cc):
        u = sample_cone_boundary_rng(example_spec, example_cc, 1.0, np.random.default_rng(5))
        path = tmp_path / "state.csv"
        state_to_csv(u, path)
        header = path.read_text().splitlines()[0]
        assert header == "t,u1,du1,u2,du2"
        v = state_from_csv(path)
        assert np.array_equal(u.nodes, v.nodes)
        assert np.array_equal(u.values, v.values)
        assert np.array_equal(u.derivatives, v.derivatives)

    def test_stack_rejected(self, tmp_path, example_spec, example_cc):
        stack = sample_cone_boundary_rng(example_spec, example_cc, 1.0,
                                         np.random.default_rng(5), size=2)
        path = tmp_path / "state.csv"
        with pytest.raises(ValueError, match=r"^state_to_csv takes one state"):
            state_to_csv(stack, path)
        assert not path.exists()

    def test_bytes_match_the_per_cell_loop(self, tmp_path):
        # the loop state_to_csv ran before it wrote through the shared writer
        def reference(u, path):
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                header = ["t"]
                for i in range(u.n):
                    header += [f"u{i + 1}", f"du{i + 1}"]
                writer.writerow(header)
                for j, t in enumerate(u.nodes):
                    row = [repr(float(t))]
                    for i in range(u.n):
                        row += [repr(float(u.values[i, j])),
                                repr(float(u.derivatives[i, j]))]
                    writer.writerow(row)
        u = trig_state(3, n=2, num_panels=8)
        u.values[0, :6] = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300]
        u.derivatives[1, :3] = [np.nan, -0.0, -1e300]
        state_to_csv(u, tmp_path / "state.csv")
        reference(u, tmp_path / "reference.csv")
        assert (tmp_path / "state.csv").read_bytes() == \
            (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("rows", [0, 3, 20, 23])
    def test_chunks_write_the_one_shot_bytes(self, tmp_path, monkeypatch, rows):
        # chunks of 5 rows: none, one short chunk, four full ones, and four
        # full ones and a short one
        monkeypatch.setattr(cone_mod, "CSV_CHUNK_ROWS", 5)
        special = np.resize([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 0.1], rows)
        labels = np.resize(np.array(["i=1,l=0", 'J:"i=1"', "I:i=2", "", "a\nb", "x"],
                                    dtype=object), rows)
        columns = {"lambda1": special, "verdict": labels,
                   "margin": special[::-1].copy()}
        cone_mod._write_csv(tmp_path / "chunked.csv", columns)
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(zip(*(map(repr, col.tolist()) if col.dtype.kind == "f"
                                   else col.tolist() for col in columns.values())))
        assert (tmp_path / "chunked.csv").read_bytes() == \
            (tmp_path / "reference.csv").read_bytes()

    def test_writer_holds_one_chunk(self, tmp_path, monkeypatch):
        # writing every column as Python objects at once peaked at 1.5 times
        # the file's size (22.6 MB for a 15.9 MB sweep of 200,000 rows); in
        # chunks of 500 rows it is about a seventh
        monkeypatch.setattr(cone_mod, "CSV_CHUNK_ROWS", 500)
        rows = 20_000
        rng = np.random.default_rng(1)
        verdicts = np.array(["certified", "undetermined", "nonexistence"], dtype=object)
        columns = {"lambda1": rng.random(rows), "eta11": rng.random(rows),
                   "verdict": verdicts[rng.integers(0, 3, rows)],
                   "binding": np.array(["i=1,l=0", "I:i=2"],
                                       dtype=object)[rng.integers(0, 2, rows)],
                   "margin": rng.standard_normal(rows)}
        path = tmp_path / "sweep.csv"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cone_mod._write_csv(path, columns)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4

    @pytest.mark.parametrize("text,message", [
        ("", r"state\.csv: no header$"),
        ("t,u1,u2\n", r"state\.csv: the header must be t, u1, du1, \.\.\., un, dun, "
                      r"not t, u1, u2$"),
        ("x,u1,du1\n", r"the header must be .*, not x, u1, du1$"),
        ("t,u1\n", r"the header must be .*, not t, u1$"),
        ("t,u1,du1\n0.0,1.0,0.0\n0.5,1.0\n", r"state\.csv: line 3 has 2 fields, "
                                            r"the header 3$"),
        # DiscreteState's checks, and a field that is not a number
        ("t,u1,du1\n", r"state\.csv: need at least 9 nodes$"),
        (_csv_rows([0.0, 0.5, 1.0]), r"state\.csv: need at least 9 nodes$"),
        (_csv_rows([k / 8 for k in range(9)], u="x"),
         r"state\.csv: could not convert string to float: 'x'$"),
        (_csv_rows([(k / 8) ** 2 for k in range(9)]), r"state\.csv: nodes must be uniform$"),
        (_csv_rows([k / 16 for k in range(9)]), r"state\.csv: nodes must span \[0, 1\]$"),
    ])
    def test_malformed_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "state.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            state_from_csv(path)


# ---------------------------------------------------------------------------
# Tabulated Hermite bases against the per-call interpolation they replaced

def ref_locate(u, x):
    x = np.asarray(x, dtype=float)
    idx = np.clip(np.searchsorted(u.nodes, x, side="right") - 1,
                  0, u.nodes.size - 2)
    h = u.nodes[1] - u.nodes[0]
    tau = (x - u.nodes[idx]) / h
    return idx, tau, h


def ref_value(u, comp, x):
    idx, tau, h = ref_locate(u, x)
    u0 = u.values[comp, idx]
    u1 = u.values[comp, idx + 1]
    d0 = u.derivatives[comp, idx]
    d1 = u.derivatives[comp, idx + 1]
    t2 = tau * tau
    t3 = t2 * tau
    return (u0 * (2 * t3 - 3 * t2 + 1) + h * d0 * (t3 - 2 * t2 + tau)
            + u1 * (-2 * t3 + 3 * t2) + h * d1 * (t3 - t2))


def ref_derivative(u, comp, x):
    idx, tau, h = ref_locate(u, x)
    u0 = u.values[comp, idx]
    u1 = u.values[comp, idx + 1]
    d0 = u.derivatives[comp, idx]
    d1 = u.derivatives[comp, idx + 1]
    t2 = tau * tau
    return (u0 * (6 * t2 - 6 * tau) / h + d0 * (3 * t2 - 4 * tau + 1)
            + u1 * (-6 * t2 + 6 * tau) / h + d1 * (3 * t2 - 2 * tau))


def same_bits(got, want) -> bool:
    return np.shape(got) == np.shape(want) and \
        np.asarray(got).tobytes() == np.asarray(want).tobytes()


def session_point_sets(u):
    """The point sets a session interpolates at, and edge cases."""
    edges = u.nodes
    mid = (edges[:-1] + edges[1:]) / 2
    panels, _ = _panel_points(edges[:-1], edges[1:], 8)
    halves, _ = _panel_points(np.concatenate((edges[:-1], mid)),
                              np.concatenate((mid, edges[1:])), 8)
    rng = np.random.default_rng(31)
    return {"monitor": u.monitor_grid(), "panels": panels, "halves": halves,
            "nystrom": panels.ravel(), "nodes": u.nodes,
            "ends": np.array([0.0, 1.0]), "zero": 0.0, "one": 1.0, "half": 0.5,
            "scalar": 0.3, "random-2d": rng.uniform(0, 1, (7, 5))}


ORACLE_STATES = {
    "trig": lambda: trig_state(6, n=2),
    "arange128": lambda: DiscreteState(np.arange(129) / 128, *trig_values(129)),
    # passes the uniformity check but differs from linspace at 10 nodes
    "arange100": lambda: DiscreteState(np.arange(101) / 100, *trig_values(101)),
    "linspace100": lambda: DiscreteState(np.linspace(0, 1, 101), *trig_values(101)),
}


def trig_values(size):
    u = trig_state(12, n=2, num_panels=size - 1)
    return u.values, u.derivatives


class TestHermiteOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_STATES))
    def test_bit_identical(self, name):
        u = ORACLE_STATES[name]()
        for key, x in session_point_sets(u).items():
            for _ in range(2):  # builds the basis, then reuses it
                for comp in range(u.n):
                    assert same_bits(u.value(comp, x), ref_value(u, comp, x)), key
                    assert same_bits(u.derivative(comp, x),
                                     ref_derivative(u, comp, x)), key
                every = slice(None)
                assert same_bits(u.value(every, x),
                                 np.stack([ref_value(u, c, x) for c in range(u.n)])), key
                assert same_bits(u.derivative(every, x), np.stack(
                    [ref_derivative(u, c, x) for c in range(u.n)])), key

    def test_keyed_on_nodes_not_count(self):
        # the same 101-node count and points on two different node vectors
        a, b = ORACLE_STATES["linspace100"](), ORACLE_STATES["arange100"]()
        assert not np.array_equal(a.nodes, b.nodes)
        x = np.linspace(0, 1, 1001)
        for u in (a, b, a):
            assert same_bits(u.value(0, x), ref_value(u, 0, x))
            assert same_bits(u.derivative(1, x), ref_derivative(u, 1, x))

    def test_values_read_at_call_time(self):
        u = trig_state(2, n=2)
        x = u.monitor_grid()
        u.value(0, x)
        u.values[0] *= 3.0  # the table holds bases, never state values
        assert same_bits(u.value(0, x), ref_value(u, 0, x))


class TestBasisTable:
    def test_falsify_reuses_its_bases(self, example_spec, example_cc):
        db = example_spec.bounds_at(1.0)
        falsify_bounds(example_spec, example_cc, db, samples=1, seed=4)
        info = cone_mod._kept_basis.cache_info()
        falsify_bounds(example_spec, example_cc, db, samples=20, seed=5)
        again = cone_mod._kept_basis.cache_info()
        assert (again.misses, again.currsize) == (info.misses, info.currsize)
        assert again.hits > info.hits

    def test_table_is_bounded(self):
        # the bound: BASIS_SETS sets of at most BASIS_SET_POINTS points, 2^16 in all
        assert cone_mod._kept_basis.cache_info().maxsize == cone_mod.BASIS_SETS
        assert cone_mod.BASIS_SETS * cone_mod.BASIS_SET_POINTS == 2 ** 16
        u = trig_state(1)
        cone_mod._kept_basis.cache_clear()
        tracemalloc.start()
        try:
            # three times as many sets of the largest kept size as the cache keeps
            for k in range(3 * cone_mod.BASIS_SETS):
                x = np.linspace(0, 1, cone_mod.BASIS_SET_POINTS - k)
                assert same_bits(u.value(0, x), ref_value(u, 0, x))
                assert cone_mod._kept_basis.cache_info().currsize <= cone_mod.BASIS_SETS
            del x
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # 10 arrays of 8 bytes per point, and the 8 bytes of its key
        assert kept <= 2 ** 16 * 90

    def test_large_point_set_is_built_but_not_kept(self):
        u = trig_state(1)
        largest = np.linspace(0, 1, cone_mod.BASIS_SET_POINTS)
        u.value(0, largest)
        before = cone_mod._kept_basis.cache_info()
        assert same_bits(u.derivative(0, largest), ref_derivative(u, 0, largest))
        assert cone_mod._kept_basis.cache_info().hits == before.hits + 1
        x = np.linspace(0, 1, cone_mod.BASIS_SET_POINTS + 1)
        before = cone_mod._kept_basis.cache_info()
        for _ in range(2):
            assert same_bits(u.value(0, x), ref_value(u, 0, x))
            assert same_bits(u.derivative(0, x), ref_derivative(u, 0, x))
        assert cone_mod._kept_basis.cache_info() == before

    def test_state_is_shared_across_threads(self, example_cc):
        # README: a state can be shared across threads while no caller writes
        # into its arrays; 4 threads at once fill the cache from empty
        u = trig_state(6, n=2)
        grid = u.monitor_grid()
        sets = [*session_point_sets(u).values(),
                *(cone_mod._window_grid(grid, cci) for cci in example_cc)]

        def run(start=None):
            if start is not None:
                start.wait()
            return [(u.value(slice(None), x), u.derivative(slice(None), x))
                    for x in sets]
        want = run()
        cone_mod._kept_basis.cache_clear()
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(run, [threading.Barrier(4)] * 4))
        for got in results:
            for (v, d), (wv, wd) in zip(got, want):
                assert same_bits(v, wv) and same_bits(d, wd)
