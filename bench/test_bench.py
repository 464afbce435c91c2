"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import json  # noqa: E402
import random  # noqa: E402
from itertools import product  # noqa: E402

import pytest  # noqa: E402

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from homglue import graphs, serialize, sidorenko  # noqa: E402
from homglue.strong import validate_strong  # noqa: E402


def files(root):
    out = {}
    for d, _, names in os.walk(root):
        for name in names:
            path = os.path.join(d, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def docs(root, sub):
    d = os.path.join(root, sub)
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name)) as fh:
            yield name, json.load(fh)


@pytest.fixture(scope="module")
def blocks(tmp_path_factory):
    """Every workload built for every block, inputs under a temp dir."""
    root = tmp_path_factory.mktemp("blocks")
    built = {}
    for workload in workloads.WORKLOADS:
        for block in range(workloads.BLOCKS):
            d = str(root / ("%s-%d" % (workload, block)))
            built[workload, block] = (d, workloads.build(workload, block, d))
    return built


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(tmp_path, workload):
    a = workloads.build(workload, 3, str(tmp_path / "a"))
    b = workloads.build(workload, 3, str(tmp_path / "b"))
    c = workloads.build(workload, 4, str(tmp_path / "c"))
    assert [j.name for j in a] == [j.name for j in b]
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert files(tmp_path / "a") != files(tmp_path / "c")


def test_every_decomposition_and_relabelled_copy_validates(blocks):
    checked = 0
    for (workload, _), (d, _) in blocks.items():
        if workload == "gap":
            continue
        sub = "docs" if workload == "structure" else "hosts"
        for name, doc in docs(d, sub):
            report = validate_strong(serialize.strong_from_json(doc))
            assert report.ok, (d, name, report.violations)
            checked += 1
    assert checked > 16 * 100


def _targets(d):
    """(host name, target graph) of every target file of a build."""
    hosts = dict(docs(d, "hosts"))
    for name, doc in docs(d, "targets"):
        host = name.split("-")[0]
        yield serialize.graph_from_json(hosts[host + ".json"]["host"]), serialize.graph_from_json(doc)


def test_every_gap_instance_is_within_the_hom_cap(blocks):
    for block in range(workloads.BLOCKS):
        d, _ = blocks["gap", block]
        for host, target in _targets(d):
            assert target.n**host.n <= graphs.DEFAULT_HOM_CAP


def test_every_degree_condition_target_satisfies_it(blocks):
    for workload in ("assoc", "gap"):
        for block in range(workloads.BLOCKS):
            d, _ = blocks[workload, block]
            for _, target in _targets(d):
                assert sidorenko.degree_condition(target)


def test_closed_form_hom_counts_agree_with_brute_force():
    for host_name, host in workloads.host_docs().items():
        n_h, edges_h = workloads._host_graph(host)
        for n in (4, 5):
            edges = gen.complete_graph(n)[::2]
            assert workloads.closed_form_homs(host_name, n, edges) == workloads.brute_force_homs(
                n_h, edges_h, n, edges
            )


def test_join_size_agrees_with_brute_force():
    rng = random.Random(0)
    for _ in range(100):
        k = rng.randint(4, 8)
        bags, tree = gen.random_markov_tree(rng, rng.randint(1, 8), k)
        weights = gen.random_joint(rng, k, 2, rng.randint(1, 12))
        supports = [{tuple(key[v] for v in bag) for key in weights} for bag in bags]
        brute = sum(
            all(tuple(y[v] for v in bag) in s for bag, s in zip(bags, supports))
            for y in product(range(2), repeat=k)
        )
        assert workloads.join_size(bags, tree, supports) == brute


def test_hom_count_through_an_imported_name_is_a_child_span():
    sd = serialize.strong_from_json(workloads.host_docs()["c4"])
    k3 = graphs.Graph(3, [(0, 1), (0, 2), (1, 2)])
    original = sidorenko.hom_count
    with tracer.Tracer() as t:
        assert sidorenko.hom_count is not original
        sidorenko.entropy_bound_report(sd, k3)
    assert sidorenko.hom_count is original

    (report,) = [s for s in t.spans if s.name == "sidorenko.entropy_bound_report"]
    children = [s.name for s in t.spans if s.parent == report.id]
    assert "graphs.hom_count" in children
    assert "sidorenko.sidorenko_check" in children
    homs = [s for s in t.spans if s.name == "graphs.hom_count"]
    assert len(homs) == 2  # one direct, one through sidorenko_check
    assert all(s.value == 18 for s in homs)  # hom(C4, K3)


def test_structure_pass_touches_no_distribution_or_hom_counting(blocks):
    d, jobs = blocks["structure", 0]
    names, expected = run.load_frozen("structure", 0)
    with tracer.Tracer() as t:
        p = run.run_pass(jobs, expected, {}, t)
    assert p.failed == 0
    m = tracer.per_layer_metrics(t, [j.name for j in jobs])
    assert m["graphs.hom_count.calls"][0] == 0
    assert m["graphs.connected_graphs_up_to.calls"][0] == 0
    assert all(m["dists.%s.calls" % f][0] == 0 for f in tracer.LAYERS["dists"])
    assert m["strong.strong_isomorphism.calls"][0] > 0
    # serialize.LOADERS entries are rebound too: the CLI reads through them
    assert m["serialize.strong_from_json.calls"][0] > 0


def test_a_corrupted_frozen_answer_is_a_failure_not_a_crash(blocks, capsys):
    _, jobs = blocks["structure", 0]
    names, expected = run.load_frozen("structure", 0)
    assert names == run.names_digest(jobs)
    corrupted = list(expected)
    corrupted[5] = "0:000000000000"
    p = run.run_pass(jobs, corrupted, {})
    assert p.failed == 1
    assert len(p.latency_ns) == len(jobs)
    assert "MISMATCH %s" % jobs[5].name in capsys.readouterr().out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_default_seed_matches_its_frozen_answers(blocks, workload):
    _, jobs = blocks[workload, workloads.DEFAULT_SEED]
    names, expected = run.load_frozen(workload, workloads.DEFAULT_SEED)
    assert names == run.names_digest(jobs)
    assert run.run_pass(jobs, expected, {}).failed == 0


def test_reference_scales_each_chunk_by_its_own_kernel_calls():
    ref = reference.Reference()
    out = []
    for _ in range(3):
        ref.add(out, reference.CHUNK_NS // 2)
    first = ref._samples[0][1]  # the third sample opened a second chunk
    assert ref.calls > 0 and ref.kernel_ns >= reference.DUTY * reference.CHUNK_NS
    factor = reference.NOMINAL_NS * ref.calls / ref.kernel_ns
    assert out[:first] == [reference.CHUNK_NS // 2 * factor] * first
    ref.close_chunk()
    assert all(isinstance(v, float) for v in out)


def test_harrell_davis_quantiles():
    assert run.hd_quantile(list(range(114)), 0.5) == pytest.approx(56.5)
    assert 101 < run.hd_quantile(list(range(114)), 0.9) < 103
    # two clusters: the sample median jumps from one to the other when a
    # single value moves across; the Harrell-Davis median moves little
    low, high = [10.0] * 57 + [20.0] * 57, [10.0] * 56 + [20.0] * 58
    assert abs(run.hd_quantile(high, 0.5) - run.hd_quantile(low, 0.5)) < 1.0
