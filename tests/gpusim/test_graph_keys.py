"""Graph-cache keys hash in O(1) and hash exactly as before.

The frozen specs inside graph-cache keys (:class:`DeviceSpec`,
:class:`ClusterSpec`, :class:`BertConfig`, :class:`OptimizationConfig`,
:class:`ShardSpec`) hash their fields once per object.  Over specs
generated with ``dataclasses.replace``, the stored hash must equal the
dataclass-generated one and equal specs must hash equal; the stored
value must stay out of ``fields()``, ``asdict``, ``repr``, copies and
pickles.  A warm tile lookup must hash no spec field and name its key
kind once.
"""

import copy
import dataclasses
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FUSED_MHA, BertConfig, OptimizationConfig
from repro.core.estimator import estimate_model_tiled
from repro.core.sharding import ShardSpec
from repro.gpusim import A100_SPEC, ExecutionContext
from repro.gpusim.device import DeviceSpec
from repro.gpusim.graph import GraphCache
from repro.gpusim.interconnect import ClusterSpec, make_cluster

SPEC_TYPES = (DeviceSpec, ClusterSpec, BertConfig, OptimizationConfig, ShardSpec)

names = st.text(min_size=1, max_size=12)
positive = st.floats(0.1, 1e4, allow_nan=False, allow_infinity=False)

devices = st.builds(
    lambda name, sms, clock, eff, smem: dataclasses.replace(
        A100_SPEC,
        name=name,
        num_sms=sms,
        clock_ghz=clock,
        dram_efficiency=eff,
        max_shared_mem_per_block=smem,
    ),
    names,
    st.integers(1, 256),
    positive,
    st.floats(0.05, 1.0),
    st.integers(1, 256 * 1024),
)
configs = st.builds(
    lambda heads, size, layers, eps: dataclasses.replace(
        BertConfig(), num_heads=heads, head_size=size, num_layers=layers,
        layernorm_eps=eps,
    ),
    st.integers(1, 32),
    st.integers(1, 128),
    st.integers(1, 24),
    st.floats(1e-12, 1e-3),
)
presets = st.builds(
    lambda fused, short, gelu, prefetch: dataclasses.replace(
        FUSED_MHA if fused else OptimizationConfig(),
        fused_mha_short_max_seq=short,
        gelu_variant=gelu,
        warp_prefetch_scheduler=prefetch,
    ),
    st.booleans(),
    st.integers(1, 1024),
    st.sampled_from(("exact", "tanh")),
    st.booleans(),
)
shards = st.integers(1, 8).flatmap(
    lambda tp: st.builds(
        lambda rank: dataclasses.replace(ShardSpec(), tp=tp, rank=rank),
        st.integers(0, tp - 1),
    )
)
clusters = st.builds(
    lambda n, device: dataclasses.replace(make_cluster(2), num_devices=n,
                                          device=device),
    st.integers(2, 8),
    devices,
)
specs = st.one_of(devices, configs, presets, shards, clusters)


def field_tuple_hash(spec) -> int:
    """What the dataclass-generated ``__hash__`` computes."""
    return hash(
        tuple(
            getattr(spec, f.name)
            for f in dataclasses.fields(spec)
            if f.compare and (f.hash is None or f.hash)
        )
    )


class TestCachedHash:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(spec=specs)
    def test_hash_and_eq_are_the_generated_ones(self, spec):
        twin = dataclasses.replace(spec)  # equal, never hashed
        assert twin is not spec and twin == spec
        want = field_tuple_hash(spec)
        assert hash(spec) == want
        assert hash(spec) == want  # the stored value
        assert hash(twin) == want

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(spec=specs)
    def test_stored_hash_stays_out_of_fields_repr_and_pickles(self, spec):
        before = (
            [f.name for f in dataclasses.fields(spec)],
            dataclasses.asdict(spec),
            repr(spec),
        )
        hash(spec)
        assert (
            [f.name for f in dataclasses.fields(spec)],
            dataclasses.asdict(spec),
            repr(spec),
        ) == before
        for clone in (
            pickle.loads(pickle.dumps(spec)),
            copy.copy(spec),
            copy.deepcopy(spec),
        ):
            assert clone == spec
            assert vars(clone).keys() == {
                f.name for f in dataclasses.fields(spec)
            }
            assert hash(clone) == hash(spec)


class TestWarmLookup:
    def test_warm_tile_lookup_hashes_no_spec_field(self, monkeypatch):
        # fresh spec objects, so no hash is stored before the capture
        device = dataclasses.replace(A100_SPEC)
        cluster = make_cluster(2, device)
        config = dataclasses.replace(BertConfig(), num_layers=2)
        preset = dataclasses.replace(FUSED_MHA)
        shard = dataclasses.replace(ShardSpec(), tp=2, rank=0)
        cache = GraphCache()

        def price():
            return estimate_model_tiled(
                ExecutionContext(device, cluster=cluster), config, preset,
                1024, 512, shard=shard, cache=cache,
            )

        cold_us = price()
        field_hashes = []
        for cls in SPEC_TYPES:
            original = cls._field_hash

            def counting(self, original=original):
                field_hashes.append(type(self).__name__)
                return original(self)

            monkeypatch.setattr(cls, "_field_hash", counting)
        kinds = []
        original_kind = GraphCache._kind_of

        def counting_kind(key):
            kinds.append(key)
            return original_kind(key)

        monkeypatch.setattr(GraphCache, "_kind_of", staticmethod(counting_kind))
        assert price() == cold_us
        assert cache.hits == 1 and cache.misses == 1
        assert field_hashes == []
        assert len(kinds) == 1
