import collections

import numpy as np
import pytest

from perfbench.inputs import (
    CATALOG_SIZE,
    NUM_QUERIES,
    RENAME_SHARE,
    bench_texts,
    rename_aiger,
    rename_bench,
    serve_mix,
    sha256_arrays,
    sha256_texts,
    stream_graph,
)
from repro.serve.service import canonicalize, parse_circuit


def test_bench_texts_are_byte_identical_per_seed():
    first, again = bench_texts(3, 12), bench_texts(3, 12)
    assert first == again
    assert sha256_texts(first) == sha256_texts(again)
    assert sha256_texts(bench_texts(4, 12)) != sha256_texts(first)


def test_bench_texts_cycle_through_the_four_pools():
    texts = bench_texts(0, 8)
    assert len(set(texts)) == 8
    # each pool contributes one circuit per round
    assert all(t.startswith("# ") for t in texts)


def test_stream_graph_is_deterministic():
    a, b = stream_graph(5, 3000), stream_graph(5, 3000)
    fields = lambda g: [g.node_type, g.edges, g.levels, g.labels]  # noqa: E731
    assert sha256_arrays(fields(a)) == sha256_arrays(fields(b))
    assert sha256_arrays(fields(stream_graph(6, 3000))) != sha256_arrays(fields(a))


@pytest.fixture(scope="module")
def mix():
    return serve_mix(11)


def test_serve_mix_is_deterministic(mix):
    again = serve_mix(11)
    assert sha256_texts(again.texts) == sha256_texts(mix.texts)


def test_serve_mix_rename_and_format_shares(mix):
    n = len(mix.queries)
    renamed = sum(q.renamed for q in mix.queries) / n
    aiger = sum(q.fmt == "aiger" for q in mix.queries) / n
    assert n == NUM_QUERIES
    # binomial standard error at n=4000 is ~0.008: allow four of them
    assert renamed == pytest.approx(RENAME_SHARE, abs=0.032)
    assert aiger == pytest.approx(0.5, abs=0.032)


def test_serve_mix_popularity_is_zipf(mix):
    counts = collections.Counter(q.structure for q in mix.queries)
    n = len(mix.queries)
    expected = 1.0 / np.arange(1, CATALOG_SIZE + 1)
    expected /= expected.sum()
    assert np.allclose(mix.popularity, expected)
    assert counts[0] / n == pytest.approx(expected[0], abs=0.03)
    assert counts[0] > counts[3] > counts[CATALOG_SIZE - 1]


def test_renamed_copies_differ_in_text_but_not_structure(mix):
    for k, text in enumerate(mix.catalog[:4]):
        key = canonicalize(parse_circuit(text, "bench"))[0]
        copy = rename_bench(text, "zz")
        assert copy != text
        assert canonicalize(parse_circuit(copy, "bench"))[0] == key
    for q in mix.queries[:200]:
        base = mix.catalog[q.structure]
        assert canonicalize(parse_circuit(q.text, q.fmt))[0] == canonicalize(
            parse_circuit(base, "bench"))[0]


def test_rename_aiger_adds_a_symbol_table():
    text = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\nc\nx\n"
    renamed = rename_aiger(text, "t")
    assert renamed == "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 t_0\ni1 t_1\no0 t_o0\nc\nt\n"
    assert parse_circuit(renamed, "aiger").ands.tolist() == [[2, 4]]
