import math

import numpy as np
import pytest

from rgae.errors import ConfigError
from rgae.graph import edge_pair_codes, jaccard_consistency
from rgae.synth import SynthConfig, generate


def pair_set(view):
    return set(edge_pair_codes(view).tolist())


class TestGenerate:
    def test_zero_unique_fraction_gives_identical_views(self):
        net = generate(SynthConfig(n=30, communities=(10, 10, 10), views=3, unique_frac=0.0, seed=1))
        j = jaccard_consistency(net)
        assert np.array_equal(j, np.ones((3, 3)))

    def test_single_community_clique(self):
        net = generate(SynthConfig(n=8, communities=(8,), views=2, p_in=1.0, p_out=0.0,
                                   unique_frac=0.0, seed=0))
        for view in net.views:
            assert view.num_edges == 8 * 7 // 2

    def test_jaccard_matches_analytic_expectation(self):
        cfg = SynthConfig(n=60, communities=(20, 20, 20), views=2, p_in=0.3, p_out=0.02,
                          unique_frac=0.5, seed=7)
        net = generate(cfg)
        backbone = generate(SynthConfig(n=60, communities=(20, 20, 20), views=2, p_in=0.3,
                                        p_out=0.02, unique_frac=0.0, seed=7))
        b = backbone.views[0].num_edges
        unique = round(0.5 * b)
        expected = b / (b + 2 * unique)
        measured = jaccard_consistency(net)[0, 1]
        assert abs(measured - expected) < 0.15

    def test_same_seed_byte_identical(self):
        cfg = SynthConfig(n=40, communities=(20, 20), views=2, seed=11)
        n1, n2 = generate(cfg), generate(cfg)
        for v1, v2 in zip(n1.views, n2.views):
            assert np.array_equal(v1.row_offsets, v2.row_offsets)
            assert np.array_equal(v1.col_indices, v2.col_indices)
            assert np.array_equal(v1.values, v2.values)

    def test_backbone_contained_in_every_view(self):
        # the backbone draw precedes the unique draws, so the same seed reproduces it
        kwargs = dict(n=40, communities=(20, 20), views=3, p_in=0.3, p_out=0.02, seed=5)
        full = generate(SynthConfig(unique_frac=0.8, **kwargs))
        backbone = generate(SynthConfig(unique_frac=0.0, **kwargs))
        backbone_pairs = pair_set(backbone.views[0])
        for view in full.views:
            assert backbone_pairs <= pair_set(view)

    def test_labels_match_block_sizes_exactly(self):
        net = generate(SynthConfig(n=25, communities=(10, 8, 7), views=2, seed=2))
        counts = {}
        for s in net.labels:
            (label,) = s
            counts[label] = counts.get(label, 0) + 1
        assert counts == {"0": 10, "1": 8, "2": 7}

    def test_unique_fraction_scales_overlap_down(self):
        base = dict(n=60, communities=(20, 20, 20), views=2, p_in=0.3, p_out=0.02, seed=7)
        means = []
        for uf in (0.0, 0.5, 1.0, 2.0):
            j = jaccard_consistency(generate(SynthConfig(unique_frac=uf, **base)))
            means.append(j[0, 1])
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_overlap_parameter_overrides_unique_frac(self):
        base = dict(n=60, communities=(30, 30), views=2, p_in=0.4, p_out=0.05, seed=3)
        net = generate(SynthConfig(unique_frac=(1 / 0.5 - 1) / 2, **base))
        j = jaccard_consistency(net)[0, 1]
        assert abs(j - 0.5) < 0.15

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(n=10, communities=(5, 6))
        with pytest.raises(ConfigError):
            SynthConfig(n=10, communities=(5, 5), p_in=0.1, p_out=0.2)
        with pytest.raises(ConfigError):
            SynthConfig(n=10, communities=(5, 5), unique_frac=-0.1)
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="unique_frac"):
                SynthConfig(n=10, communities=(5, 5), unique_frac=value)
        with pytest.raises(ConfigError, match="seed"):
            SynthConfig(n=10, communities=(5, 5), seed=-1)

    @pytest.mark.parametrize(
        "overrides, name, kind",
        [
            ({"communities": (10.9, 10, 10)}, "community sizes", "an integer"),
            ({"views": 2.5}, "views", "an integer"),
            ({"n": 30.0}, "n", "an integer"),
            ({"seed": 1.5}, "seed", "an integer"),
            ({"communities": 30}, "community sizes", "a sequence of integers"),
            ({"views": True}, "views", "an integer"),
            ({"seed": True}, "seed", "an integer"),
        ],
        ids=["communities-10.9", "views-2.5", "n-30.0", "seed-1.5", "communities-int", "views-bool", "seed-bool"],
    )
    def test_integer_fields_checked_at_construction(self, overrides, name, kind):
        with pytest.raises(ConfigError, match=f"^{name} must be {kind} of at least"):
            SynthConfig(**{"n": 30, "communities": (10, 10, 10), **overrides})

    def test_numpy_integer_fields_accepted(self):
        base = dict(n=30, communities=(10, 10, 10), views=2, seed=4)
        as_numpy = dict(n=np.int64(30), communities=tuple(np.int32(10) for _ in range(3)),
                        views=np.int64(2), seed=np.int64(4))
        want, got = generate(SynthConfig(**base)), generate(SynthConfig(**as_numpy))
        assert [v.to_dense().tolist() for v in got.views] == [v.to_dense().tolist() for v in want.views]
        assert got.labels == want.labels

    def test_empty_backbone_rejected(self):
        with pytest.raises(ConfigError):
            generate(SynthConfig(n=4, communities=(2, 2), p_in=1e-9, p_out=0.0, seed=0))

    def test_excessive_unique_fraction_rejected(self):
        with pytest.raises(ConfigError):
            generate(SynthConfig(n=8, communities=(4, 4), p_in=1.0, p_out=0.5,
                                 unique_frac=50.0, seed=0))
