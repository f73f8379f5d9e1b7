import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_graph, template_graph
from ownet import components as comp
from ownet.errors import LoadError
from ownet.graph import NA_JURISDICTION, substantial_view
from ownet.jurisdiction import (
    JurisdictionProfile,
    chain_tables,
    conduit_outward_centrality,
    hq_tables,
    link_flows,
    load_profiles,
    ols_regression,
    pass_flows,
    sink_centrality,
    tally_by_bowtie,
    tally_by_jurisdiction,
)
from ownet.keyfirms import ClassificationReport, Role, classify_all
from ownet.pipeline import RunConfig, run_pipeline, run_stage, verify_manifest
from ownet.synth import toy_m1_template


def classified(graph, *mncs):
    """A report of layer-1 third-country firms; ``mncs`` are (name, hq_index, firms, roles)."""
    firms = [firm for _, _, group, _ in mncs for firm in group]
    n = len(firms)
    return ClassificationReport(
        graph, [name for name, _, _, _ in mncs], np.array([hq for _, hq, _, _ in mncs], dtype=np.int64),
        np.cumsum([0] + [len(group) for _, _, group, _ in mncs]), np.array(firms, dtype=np.int64),
        np.ones(n, dtype=np.int32), np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64), np.full(n, np.nan),
        np.full(n, np.nan), np.ones(n, dtype=bool), np.array([r for *_, roles in mncs for r in roles], dtype=np.int8),
    )


def profiles_of(gdps):
    return {code: JurisdictionProfile(gdp=g) for code, g in gdps.items()}


class TestSink:
    def test_hand_example(self):
        scores = sink_centrality({"A": 80.0, "B": 20.0}, {"A": 20.0, "B": 80.0}, profiles_of({"A": 1.0, "B": 9.0}))
        assert scores.scores["A"] == pytest.approx(6.0)
        assert scores.scores["B"] == pytest.approx(-0.6667, abs=1e-4)

    def test_balanced_flows_zero(self):
        scores = sink_centrality({"A": 5.0, "B": 7.0}, {"A": 5.0, "B": 7.0}, profiles_of({"A": 1.0, "B": 1.0}))
        assert all(s == 0.0 for s in scores.scores.values())

    def test_sink_flag(self):
        scores = sink_centrality({"A": 100.0}, {"A": 1.0}, profiles_of({"A": 1.0, "B": 99.0}))
        assert scores.scores["A"] == pytest.approx(99.0)
        assert scores.flagged == ["A"]

    def test_missing_gdp_skipped(self):
        scores = sink_centrality({"A": 10.0, "B": 10.0}, {}, profiles_of({"A": 1.0}))
        assert "B" not in scores.scores

    def test_rescaling_invariance(self):
        v_in, v_out = {"A": 80.0, "B": 20.0}, {"A": 20.0, "B": 80.0}
        scaled = [{k: 7 * v for k, v in flows.items()} for flows in (v_in, v_out)]
        p = profiles_of({"A": 1.0, "B": 9.0})
        assert sink_centrality(v_in, v_out, p).scores == pytest.approx(sink_centrality(*scaled, p).scores)

    def test_monotone_in_net_flow(self):
        p = profiles_of({"A": 1.0, "B": 9.0})
        prev = -math.inf
        for net in (10.0, 30.0, 60.0):
            s = sink_centrality({"A": net, "B": 100 - net}, {"A": 0.0, "B": 0.0}, p).scores["A"]
            assert s > prev
            prev = s


class TestConduit:
    def test_hand_example(self):
        scores = conduit_outward_centrality({}, {}, {"A": 30.0, "B": 70.0}, profiles_of({"A": 1.0, "B": 9.0}))
        assert scores.scores["A"] == pytest.approx(3.0)
        assert scores.scores["B"] == pytest.approx(0.7778, abs=1e-4)
        assert scores.flagged == ["A"]

    def test_uniform_boundary_not_flagged(self):
        scores = conduit_outward_centrality({}, {}, {"A": 10.0, "B": 90.0}, profiles_of({"A": 1.0, "B": 9.0}))
        assert scores.scores["A"] == pytest.approx(1.0)
        assert scores.scores["B"] == pytest.approx(1.0)
        assert scores.flagged == []

    def test_zero_pass_is_zero(self):
        scores = conduit_outward_centrality({"C": 4.0}, {}, {"A": 30.0}, profiles_of({"A": 1.0, "C": 2.0}))
        assert scores.scores["C"] == 0.0


class TestLinkFlows:
    def graph(self):
        juris = {0: "JP", 1: "NL", 2: "NL", 3: "GB"}
        return make_graph(4, [(1, 0), (2, 1), (3, 1), (0, 3)], jurisdictions=juris)

    def test_cross_border_only(self):
        view = substantial_view(self.graph())
        v_in, v_out = link_flows(view)
        # NL->NL edge (2,1) is domestic: not counted
        assert v_in == {"JP": 1.0, "NL": 1.0, "GB": 1.0}
        assert v_out == {"NL": 1.0, "GB": 1.0, "JP": 1.0}

    def test_value_mode(self):
        view = substantial_view(self.graph())
        values = np.full(view.n_edges, 2.5)
        v_in, _ = link_flows(view, edge_values=values)
        assert sum(v_in.values()) == pytest.approx(3 * 2.5)

    def test_pass_flows_two_paths(self):
        # u(GB) -> x(NL) -> w(KY, sink): one two-path through NL
        juris = {0: "GB", 1: "NL", 2: "KY", 3: "NL"}
        g = make_graph(4, [(0, 1), (1, 2), (3, 1)], jurisdictions=juris)
        view = substantial_view(g)
        got = pass_flows(view, sink_codes={"KY"})
        # node 1 has one foreign in-edge (0->1) and one edge to a sink (1->2)
        assert got == {"NL": 1.0}

    def test_pass_requires_sink_target(self):
        juris = {0: "GB", 1: "NL", 2: "DE"}
        g = make_graph(3, [(0, 1), (1, 2)], jurisdictions=juris)
        view = substantial_view(g)
        assert pass_flows(view, sink_codes=set()) == {}

    @pytest.mark.parametrize("flows", [link_flows, lambda view, values: pass_flows(view, {"GB"}, values)],
                             ids=["link_flows", "pass_flows"])
    def test_values_must_align(self, flows):
        view = substantial_view(self.graph())
        with pytest.raises(ValueError, match="align"):
            flows(view, np.ones(view.n_edges + 1))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_flows_match_edge_loops(self, data):
        # random multigraphs with parallel, domestic, self-loop and n.a. edges, some below the view's 10%;
        # integer values keep every sum exact, so the totals must be equal
        codes = ["JP", "NL", NA_JURISDICTION]
        n = data.draw(st.integers(1, 6))
        juris = data.draw(st.lists(st.sampled_from(codes), min_size=n, max_size=n))
        edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                             st.sampled_from([5.0, 10.0, 60.0])), max_size=14))
        view = substantial_view(make_graph(n, edges, jurisdictions=dict(enumerate(juris))))
        values = data.draw(st.none() | st.lists(st.integers(0, 4), min_size=view.n_edges, max_size=view.n_edges))
        sinks = data.draw(st.sets(st.sampled_from(codes)))

        weights = [1.0] * view.n_edges if values is None else [float(v) for v in values]
        pairs = list(zip(view.src.tolist(), view.dst.tolist()))
        v_in, v_out, v_pass = {}, {}, {}
        for (s, d), w in zip(pairs, weights):
            if juris[s] != juris[d]:
                v_in[juris[d]] = v_in.get(juris[d], 0.0) + w
                v_out[juris[s]] = v_out.get(juris[s], 0.0) + w
        for x in range(n):  # x's foreign in-edges times its foreign out-edges into a sink jurisdiction
            inbound = sum(w for (s, d), w in zip(pairs, weights) if d == x and juris[s] != juris[x])
            outbound = sum(w for (s, d), w in zip(pairs, weights)
                           if s == x and juris[d] != juris[x] and juris[d] in sinks)
            v_pass[juris[x]] = v_pass.get(juris[x], 0.0) + inbound * outbound

        def nonzero(totals):
            return {code: total for code, total in totals.items() if total}

        edge_values = None if values is None else np.array(values, dtype=np.float64)
        assert link_flows(view, edge_values) == (nonzero(v_in), nonzero(v_out))
        assert pass_flows(view, sinks, edge_values) == nonzero(v_pass)


class TestTallies:
    def _report(self):
        template = toy_m1_template()
        g = template_graph(template)
        view = substantial_view(g)
        return g, view, classify_all(view, [("M1:HQ", "M1")])

    def test_example_share(self):
        g, view, report = self._report()
        rows = tally_by_jurisdiction(report, "holding")
        assert rows == [("NL", 1, 100.0)]
        rows = tally_by_jurisdiction(report, "affiliates")
        total = sum(n for _, n, _ in rows)
        assert total == 8
        assert sum(p for _, _, p in rows) == pytest.approx(100.0)

    def test_counts_two_thirds(self):
        # toy corpus: key firms in {NL, NL, GB}
        g = make_graph(3, [], jurisdictions={0: "NL", 1: "NL", 2: "GB"})
        report = classified(g, ("X", 0, [0, 1, 2], [Role.HOLDING] * 3))
        rows = tally_by_jurisdiction(report, "holding")
        assert rows[0] == ("NL", 2, pytest.approx(66.6667, abs=1e-3))
        assert rows[1] == ("GB", 1, pytest.approx(33.3333, abs=1e-3))

    def test_empty(self):
        g, view, _ = self._report()
        report = classified(g)
        assert tally_by_jurisdiction(report, "conduit") == []

    def test_invalid_dimension(self):
        g, view, report = self._report()
        with pytest.raises(ValueError):
            tally_by_jurisdiction(report, "bogus")


class TestBowTieTally:
    def test_regions_and_rest(self):
        # GSCC = {0,1}; IN = {2}; key firm at 2; another firm isolated at 4 -> REST
        juris = {i: c for i, c in enumerate(["US", "US", "NL", "JP", "GB"])}
        g = make_graph(5, [(0, 1), (1, 0), (2, 0), (3, 2)], jurisdictions=juris)
        bowtie = comp.bowtie_decompose(g)
        report = classified(g, ("X", 3, [2, 4], [Role.HOLDING, Role.CONDUIT]))
        out = tally_by_bowtie(report, bowtie)
        assert out["Holding"] == {"IN": 1}
        assert out["Conduit"] == {"REST": 1}
        assert out["hq"] == {"IN": 1}


class TestChains:
    def test_toy_table(self):
        template = toy_m1_template()
        g = template_graph(template)
        view = substantial_view(g)
        report = classify_all(view, [("M1:HQ", "M1")])
        table = chain_tables(report, view, Role.HOLDING, "NL")
        assert table.subsidiaries[0] == ("FR", 2, pytest.approx(100 * 2 / 3))
        assert table.subsidiaries[1] == ("GB", 1, pytest.approx(100 / 3))
        assert table.shareholders == [("JP", 1, 100.0)]

    def test_no_matching_firms(self):
        template = toy_m1_template()
        g = template_graph(template)
        view = substantial_view(g)
        report = classify_all(view, [("M1:HQ", "M1")])
        table = chain_tables(report, view, Role.CONDUIT, "LU")
        assert table.subsidiaries == [] and table.shareholders == []


class TestHqTables:
    def test_single_hq_all_shares(self):
        template = toy_m1_template()
        g = template_graph(template)
        view = substantial_view(g)
        report = classify_all(view, [("M1:HQ", "M1")])
        tables = hq_tables(report)
        for role, rows in tables.by_role.items():
            assert rows == [("JP", 1, 100.0)]

    def test_share_split(self):
        juris = {0: "US", 1: "JP", 2: "NL", 3: "NL", 4: "NL", 5: "GB"}
        g = make_graph(6, [], jurisdictions=juris)
        report = classified(g, ("A", 0, [2, 3, 4], [Role.HOLDING] * 3), ("B", 1, [5], [Role.HOLDING]))
        rows = hq_tables(report).by_role["Holding"]
        assert rows[0] == ("US", 3, 75.0)
        assert rows[1] == ("JP", 1, 25.0)


class TestOls:
    def test_perfect_line(self):
        x = np.arange(10, dtype=float)
        y = 2 + 3 * x
        res = ols_regression(x, y)
        assert res.intercept == pytest.approx(2.0, abs=1e-12)
        assert res.slope == pytest.approx(3.0, abs=1e-12)
        assert res.r_squared == pytest.approx(1.0)
        assert res.p_slope == 0.0

    def test_constant_y(self):
        x = np.arange(8, dtype=float)
        y = np.full(8, 4.0)
        res = ols_regression(x, y)
        assert res.slope == 0.0
        assert res.adj_r_squared <= 0.0

    def test_eight_point_oracle(self):
        x = np.array([0.2, 1.1, 1.9, 3.2, 4.1, 5.3, 6.0, 7.7])
        y = np.array([1.1, 0.7, 2.4, 2.0, 3.9, 3.1, 4.8, 5.2])
        res = ols_regression(x, y)
        # normal equations, written out independently
        n = 8
        sx, sy = x.sum(), y.sum()
        sxx, sxy = (x * x).sum(), (x * y).sum()
        slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        intercept = (sy - slope * sx) / n
        resid = y - intercept - slope * x
        s2 = (resid**2).sum() / (n - 2)
        se_slope = math.sqrt(s2 * n / (n * sxx - sx * sx))
        se_int = math.sqrt(s2 * sxx / (n * sxx - sx * sx))
        from scipy import stats as sps

        assert res.slope == pytest.approx(slope, abs=1e-10)
        assert res.intercept == pytest.approx(intercept, abs=1e-10)
        assert res.t_slope == pytest.approx(slope / se_slope, abs=1e-10)
        assert res.t_intercept == pytest.approx(intercept / se_int, abs=1e-10)
        assert res.p_slope == pytest.approx(2 * sps.t.sf(abs(slope / se_slope), n - 2), abs=1e-12)
        sst = ((y - y.mean()) ** 2).sum()
        r2 = 1 - (resid**2).sum() / sst
        assert res.adj_r_squared == pytest.approx(1 - (1 - r2) * (n - 1) / (n - 2), abs=1e-10)

    @given(st.integers(3, 300), st.integers(0, 2**32 - 1), st.floats(-16.0, 1.0))
    @example(3, 0, 0.0)  # df = 1
    @example(300, 1, -16.0)  # near-perfect fit: |t| ~ 1e17, both p underflow to 0.0
    @settings(max_examples=200, deadline=None)
    def test_p_values_match_scipy_stats(self, n, seed, log_noise):
        """Both p-values equal scipy.stats' two-sided t tail bit for bit, underflow included."""
        from scipy import stats as sps

        rng = np.random.default_rng(seed)
        x = rng.normal(size=n)
        y = 1.5 + 0.7 * x + 10.0**log_noise * rng.normal(size=n)
        res = ols_regression(x, y)
        assert res.p_slope == 2 * sps.t.sf(abs(res.t_slope), n - 2)
        assert res.p_intercept == 2 * sps.t.sf(abs(res.t_intercept), n - 2)
        if (n, seed, log_noise) == (300, 1, -16.0):
            assert res.p_slope == res.p_intercept == 0.0 and math.isfinite(res.t_slope)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=50)
        y = 1.5 + 0.7 * x + rng.normal(size=50)
        res = ols_regression(x, y)
        resid = y - res.intercept - res.slope * x
        assert abs(resid.sum()) < 1e-8
        assert abs((resid * x).sum()) < 1e-8

    def test_errors(self):
        with pytest.raises(ValueError, match="3 observations"):
            ols_regression([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="constant"):
            ols_regression([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


class TestProfiles:
    def test_load(self, tmp_path):
        path = tmp_path / "profiles.csv"
        path.write_text(
            "code,gdp,gdp_year,statutory_rate,wtc\nUS,18.5,2015,0.35,0.01\nKY,,,,\n",
            encoding="utf-8",
        )
        profiles = load_profiles(path)
        # gdp_year and statutory_rate are checked but not kept
        assert profiles == {"US": JurisdictionProfile(18.5, 0.01), "KY": JurisdictionProfile(None, None)}

    def test_negative_gdp_rejected(self, tmp_path):
        path = tmp_path / "profiles.csv"
        path.write_text("code,gdp,gdp_year,statutory_rate,wtc\nUS,-1,,,\n", encoding="utf-8")
        with pytest.raises(LoadError):
            load_profiles(path)

    @pytest.mark.parametrize("row, message", [
        ("US,nan,,,", "gdp"),
        ("US,inf,,,", "gdp"),
        ("US,1.0,,-inf,", "statutory_rate"),
        ("US,1.0,,nan,", "statutory_rate"),
        ("US,1.0,,,inf", "wtc"),
        ("US,1.0,,,nan", "wtc"),
        ("US,1.0,2015.5,,", "gdp_year"),
        ("US,1.0,y2k,,", "gdp_year"),
    ])
    def test_bad_number_names_line(self, tmp_path, row, message):
        path = tmp_path / "profiles.csv"
        path.write_text(f"code,gdp,gdp_year,statutory_rate,wtc\nJP,5.0,2015,0.3,0.2\n{row}\n", encoding="utf-8")
        with pytest.raises(LoadError, match=message) as info:
            load_profiles(path)
        assert (info.value.path, info.value.line) == (path, 3)

    def test_flow_integration(self):
        juris = {0: "JP", 1: "NL", 2: "KY"}
        g = make_graph(3, [(0, 1), (1, 2)], jurisdictions=juris)
        view = substantial_view(g)
        sink = sink_centrality(*link_flows(view), profiles_of({"JP": 5.0, "NL": 1.0, "KY": 0.1}))
        assert sink.flagged == ["KY"]
        assert pass_flows(view, sink.flagged) == {"NL": 1.0}  # JP -> NL -> KY passes through NL


class TestScoreTables:
    def test_sink_and_conduit_rows(self, tmp_path):
        # JP -> NL -> KY: KY keeps the only net inflow and is flagged a sink, NL passes capital on to it
        g = make_graph(3, [(0, 1), (1, 2)], jurisdictions={0: "JP", 1: "NL", 2: "KY"})
        path = tmp_path / "profiles.csv"
        path.write_text("code,gdp,gdp_year,statutory_rate,wtc\nJP,5.0,,,\nNL,1.0,,,\nKY,0.1,,,\n", encoding="utf-8")
        config = RunConfig(nodes=None, edges=None, outdir=tmp_path / "out", profiles=path)
        run_stage("jurisdiction", config, {"graph": g, "report": classified(g)})

        view, profiles = substantial_view(g), load_profiles(path)
        v_in, v_out = link_flows(view)
        sink = sink_centrality(v_in, v_out, profiles)
        conduit = conduit_outward_centrality(v_in, v_out, pass_flows(view, sink.flagged), profiles)
        assert (sink.flagged, conduit.flagged) == (["KY"], ["NL"])
        for name, scores in (("sink.csv", sink), ("conduit.csv", conduit)):
            rows = (tmp_path / "out" / "reports" / name).read_text(encoding="utf-8").splitlines()
            assert rows == ["code,score,flagged"] + [
                f"{code},{score!r},{int(code in scores.flagged)}" for code, score in sorted(scores.scores.items())
            ]

    def test_no_cross_border_link_gives_header_only_tables(self, tmp_path):
        # HQ <- a <- b, all in JP: no flow crosses a border, so no code is scored or flagged
        # and the run still writes every jurisdiction table
        files = {
            "nodes": "node_id,jurisdiction,nace_section,name,is_hq\nHQ,JP,K,Hq,1\na,JP,K,A,0\nb,JP,K,B,0\n",
            "edges": "subsidiary_id,shareholder_id,pct\na,HQ,60\nb,a,70\n",
            "hqs": "hq_node_id,mnc_name\nHQ,M\n",
            "profiles": "code,gdp,gdp_year,statutory_rate,wtc\nJP,5.0,,,10\nNL,1.0,,,0\nUS,20.0,,,5\n",
        }
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text(text, encoding="utf-8")
        data = verify_manifest(run_pipeline(RunConfig(outdir=tmp_path / "out", **paths)))
        assert data["status"] == "ok"
        reports = tmp_path / "out" / "reports"
        for name in ("sink.csv", "conduit.csv"):
            assert (reports / name).read_text(encoding="utf-8").splitlines() == ["code,score,flagged"], name
        assert {"reports/tallies/hq.csv", "reports/hq_tables.json", "reports/regression.json"} <= set(
            data["stages"]["jurisdiction"]["artifacts"])
        assert (reports / "tallies" / "hq.csv").read_text(encoding="utf-8").splitlines()[1:] == ["JP,1,100.0"]


class TestEdgeValues:
    def test_load_and_apply(self, tmp_path):
        from ownet.jurisdiction import load_edge_values

        juris = {0: "JP", 1: "NL", 2: "GB"}
        g = make_graph(3, [(0, 1, 60.0), (1, 2, 40.0), (2, 0, 5.0)], jurisdictions=juris)
        view = substantial_view(g)
        path = tmp_path / "values.csv"
        path.write_text(
            "subsidiary_id,shareholder_id,value\nn0,n1,12.5\nn1,n2,2.5\nn2,n0,99\n",
            encoding="utf-8",
        )
        values = load_edge_values(path, view)
        assert values.shape[0] == view.n_edges == 2  # sub-threshold row ignored
        v_in, _ = link_flows(view, edge_values=values)
        assert sum(v_in.values()) == pytest.approx(15.0)

    def test_repeated_rows_accumulate(self, tmp_path):
        from ownet.jurisdiction import load_edge_values

        g = make_graph(2, [(0, 1, 50.0)], jurisdictions={0: "JP", 1: "NL"})
        view = substantial_view(g)
        path = tmp_path / "values.csv"
        path.write_text(
            "subsidiary_id,shareholder_id,value\nn0,n1,1.0\nn0,n1,2.0\n", encoding="utf-8"
        )
        assert load_edge_values(path, view).tolist() == [3.0]

    def test_unknown_node_rejected(self, tmp_path):
        from ownet.jurisdiction import load_edge_values

        g = make_graph(2, [(0, 1, 50.0)])
        view = substantial_view(g)
        path = tmp_path / "values.csv"
        path.write_text("subsidiary_id,shareholder_id,value\nzz,n1,1.0\n", encoding="utf-8")
        with pytest.raises(LoadError, match="unknown"):
            load_edge_values(path, view)

    @given(st.integers(2, 5).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from([5.0, 20.0, 60.0]))
                 .filter(lambda e: e[0] != e[1]), max_size=8),
        st.lists(st.tuples(st.sampled_from([f"n{i}" for i in range(n)] + ["zz", " n0 "]),
                           st.sampled_from([f"n{i}" for i in range(n)] + ["zz"]),
                           st.floats(0, 1e6).map(repr) | st.sampled_from(["0.1", "0.2", "1e3", "-1", "abc", ""])),
                 max_size=12))))
    @example((2, [(0, 1, 60.0), (0, 1, 20.0), (0, 1, 60.0)], [("n0", "n1", "0.1"), ("n0", "n1", "0.2"), ("n0", "n1", "0.7")]))
    @example((3, [(0, 1, 60.0)], [("n0", "n1", "abc"), ("zz", "n1", "1")]))
    @example((3, [(0, 1, 60.0)], [("n0", "n1", "1"), ("n2", "zz", "-1"), ("n0", "zz", "1")]))
    # an unknown id, then a row of the same id-lookup chunk that has too many fields
    @example((3, [(0, 1, 60.0)], [("n0", "zz", "1"), ("n0", "n1", "1,2")]))
    @settings(max_examples=200, deadline=None)
    def test_batch_equals_row_loop(self, tmp_path_factory, case):
        """Repeated rows over parallel edges add up in file order, bit for bit
        as the row-at-a-time loader added them; errors keep their message and
        line. ``EMIT_ROWS`` is 2, so the id lookups split the rows into chunks."""
        import ownet.graph as graph_module
        from ownet.jurisdiction import load_edge_values

        n, edges, rows = case
        view = substantial_view(make_graph(n, edges))
        path = tmp_path_factory.mktemp("values") / "values.csv"
        path.write_text("subsidiary_id,shareholder_id,value\n" + "".join(f"{a},{b},{v}\n" for a, b, v in rows),
                        encoding="utf-8")

        def outcome(load):
            try:
                return load(path, view).tolist()
            except LoadError as exc:
                return str(exc), exc.line

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_module, "EMIT_ROWS", 2)
            got = outcome(load_edge_values)
        assert got == outcome(reference_edge_values)

    @pytest.mark.parametrize("value", ["nan", "inf", "+inf", "NaN"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        from ownet.jurisdiction import load_edge_values

        g = make_graph(2, [(0, 1, 50.0)])
        view = substantial_view(g)
        path = tmp_path / "values.csv"
        path.write_text(f"subsidiary_id,shareholder_id,value\nn0,n1,1.0\nn0,n1,{value}\n", encoding="utf-8")
        with pytest.raises(LoadError, match="value") as info:
            load_edge_values(path, view)
        assert (info.value.path, info.value.line) == (path, 3)


def reference_edge_values(path, view):
    """The row-at-a-time ``load_edge_values`` that preceded the batched one, kept as its oracle."""
    from ownet.errors import GraphError
    from ownet.graph import data_rows, parse_number
    from ownet.jurisdiction import VALUE_HEADER

    n = np.int64(view.n_nodes)
    keys = view.src.astype(np.int64) * n + view.dst.astype(np.int64)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    values = np.zeros(view.n_edges, dtype=np.float64)
    for line, row in data_rows(path, VALUE_HEADER):
        try:
            sub = view.graph.index_of(row[0].strip())
            sh = view.graph.index_of(row[1].strip())
        except GraphError:
            raise LoadError("unknown node in value row", path, line) from None
        value = parse_number(row[2], float, "value", path, line)
        if value < 0:
            raise LoadError(f"value must be nonnegative, got {value}", path, line)
        key = np.int64(sub) * n + np.int64(sh)
        lo = int(np.searchsorted(sorted_keys, key, side="left"))
        hi = int(np.searchsorted(sorted_keys, key, side="right"))
        if hi > lo:
            values[order[lo:hi]] += value / (hi - lo)
    return values
