"""Tests for the NAS DT and EP reproductions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.nas import (
    DT_CLASSES,
    bh_graph,
    dt_app,
    dt_graph,
    dt_reference_checksum,
    ep_app,
    ep_chunk_counts,
    ep_reference_counts,
    sh_graph,
    wh_graph,
)
from repro.smpi import smpirun
from repro.surf import cluster


class TestDtGraphs:
    @pytest.mark.parametrize(
        "cls,bhwh,sh",
        [("A", 21, 80), ("B", 43, 192), ("C", 85, 448)],
    )
    def test_paper_process_counts(self, cls, bhwh, sh):
        """The exact process counts of paper section 7.1.4."""
        assert DT_CLASSES[cls].bhwh_nodes == bhwh
        assert DT_CLASSES[cls].sh_nodes == sh
        assert bh_graph(cls).n_ranks == bhwh
        assert wh_graph(cls).n_ranks == bhwh
        assert sh_graph(cls).n_ranks == sh

    def test_bh_has_single_sink_many_sources(self):
        graph = bh_graph("A")
        assert len(graph.sinks()) == 1
        assert len(graph.sources()) == 16

    def test_wh_mirrors_bh(self):
        bh = bh_graph("A")
        wh = wh_graph("A")
        assert len(wh.sources()) == len(bh.sinks())
        assert len(wh.sinks()) == len(bh.sources())
        assert sorted(e[::-1] for e in bh.edges()) == sorted(wh.edges())

    def test_bh_volumes_grow_toward_sink(self):
        graph = bh_graph("A")
        sink = graph.sinks()[0]
        base = graph.cls.feature_elems
        assert graph.in_elems(sink) == 16 * base  # aggregate of all sources

    def test_sh_preserves_volume_per_layer(self):
        graph = sh_graph("A")
        base = graph.cls.feature_elems
        for node in graph.nodes:
            assert graph.in_elems(node) == base
            if not node.is_sink:
                assert node.out_elems == base // 2

    def test_sh_every_interior_node_has_two_in_two_out(self):
        graph = sh_graph("W")
        for node in graph.nodes:
            if not node.is_source:
                assert len(node.in_edges) == 2
            if not node.is_sink:
                assert len(node.out_edges) == 2

    def test_unknown_scheme_raises(self):
        with pytest.raises(ConfigError):
            dt_graph("XX", "A")

    @given(st.sampled_from(["S", "W", "A"]), st.sampled_from(["BH", "WH", "SH"]))
    @settings(max_examples=20, deadline=None)
    def test_graph_invariants(self, cls, scheme):
        """Edges are layered forward, volumes positive, graph acyclic."""
        graph = dt_graph(scheme, cls)
        for node in graph.nodes:
            assert node.out_elems > 0
            for dst in node.out_edges:
                assert graph.nodes[dst].layer == node.layer + 1
            for src in node.in_edges:
                assert graph.nodes[src].layer == node.layer - 1
        # every non-sink's traffic is absorbed: each edge consistent both ways
        for src, dst in graph.edges():
            assert src in graph.nodes[dst].in_edges


class TestDtExecution:
    @pytest.mark.parametrize("scheme", ["BH", "WH", "SH"])
    def test_online_checksums_match_reference(self, scheme):
        graph = dt_graph(scheme, "S")
        platform = cluster("dt", graph.n_ranks)
        result = smpirun(dt_app, graph.n_ranks, platform, app_args=(graph,))
        sinks = sorted(x for x in result.returns if x is not None)
        reference = sorted(dt_reference_checksum(graph))
        assert np.allclose(sinks, reference)

    def test_bh_slower_than_wh(self):
        """The headline trend of Fig. 15."""
        platform = cluster("dtw", 21)
        times = {}
        for scheme in ("BH", "WH"):
            graph = dt_graph(scheme, "A")
            result = smpirun(dt_app, graph.n_ranks, platform, app_args=(graph,))
            times[scheme] = result.simulated_time
        assert times["BH"] > 1.3 * times["WH"]

    def test_folded_run_uses_less_memory(self):
        graph = dt_graph("BH", "W")
        platform = cluster("dtf", graph.n_ranks)
        unfolded = smpirun(dt_app, graph.n_ranks, platform,
                           app_args=(graph, 0, False))
        folded = smpirun(dt_app, graph.n_ranks, platform,
                         app_args=(graph, 0, True))
        assert folded.memory.total_peak < unfolded.memory.total_peak

    def test_different_seeds_change_checksums(self):
        graph = dt_graph("BH", "S")
        a = dt_reference_checksum(graph, seed=0)
        b = dt_reference_checksum(graph, seed=1)
        assert a != b


    def test_source_features_in_place_equal_returned(self):
        """A source rank's features written into its work buffer are the
        reference's returned features, bit for bit."""
        from repro.nas.dt import _source_features

        for rank, elems, seed in [(0, 1, 0), (3, 1000, 0), (7, 4097, 5)]:
            returned = _source_features(rank, elems, seed)
            work = np.full(elems, np.nan)
            assert _source_features(rank, elems, seed, out=work) is work
            assert work.tobytes() == returned.tobytes()


class TestEp:
    def test_counts_match_reference(self):
        n, chunks, pairs = 2, 8, 64
        platform = cluster("ep", n)
        result = smpirun(ep_app, n, platform,
                         app_args=(chunks, pairs, 1.0))
        reference = ep_reference_counts(n, chunks, pairs)
        for rank_counts in result.returns:
            np.testing.assert_array_equal(rank_counts, reference)

    def test_chunk_counts_deterministic(self):
        a = ep_chunk_counts(0, 0, 100, seed=0)
        b = ep_chunk_counts(0, 0, 100, seed=0)
        np.testing.assert_array_equal(a, b)
        c = ep_chunk_counts(1, 0, 100, seed=0)
        assert not np.array_equal(a, c)

    def test_counts_total_is_acceptance_count(self):
        counts = ep_chunk_counts(3, 5, 1000, seed=2)
        assert 0 < counts.sum() <= 1000
        assert (counts >= 0).all()

    def test_sampling_ratio_skips_compute_but_not_result_shape(self):
        n, chunks, pairs = 2, 16, 32
        platform = cluster("eps", n)
        result = smpirun(ep_app, n, platform,
                         app_args=(chunks, pairs, 0.25))
        sampled = result.returns[0]
        full = ep_reference_counts(n, chunks, pairs)
        # approximate results: only ~25 % of the contributions are present
        assert sampled.sum() < full.sum()
        assert sampled.sum() > 0

    def test_sampling_reduces_executed_chunks(self):
        n, chunks, pairs = 1, 40, 16
        platform = cluster("epr", 2)
        result = smpirun(ep_app, n, platform, app_args=(chunks, pairs, 0.1))
        stats = result.sampler_stats["ep-chunk"]
        assert stats["samples"] == 4  # 10 % of 40
