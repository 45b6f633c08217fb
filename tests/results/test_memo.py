"""Cross-run query memo: byte-identical hits, skipped passes."""

import json
from fractions import Fraction

import pytest

from repro.chain import (
    Query,
    clear_memo,
    compile_chain,
    run_group_queries,
    run_queries,
)
from repro.context import ExecutionContext, use_context
from repro.core import k_leader_election, leader_election
from repro.models import adversarial_assignment
from repro.randomness import RandomnessConfiguration
from repro.results import (
    decode_value,
    encode_value,
    query_memo,
    query_token,
    task_token,
)
from repro.runner import SweepSpec, run_sweep


@pytest.fixture
def memo(tmp_path):
    with use_context(ExecutionContext(results_memo=tmp_path / "memo")):
        yield query_memo()


def queries_for(n):
    task = leader_election(n)
    return [
        Query.limit(task),
        Query.expected_time(task),
        Query.series(task, 4),
        Query.probability(task, 3),
        Query.solvable(task),
    ]


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            7,
            Fraction(3, 7),
            Fraction(1),
            0.1 + 0.2,  # not exactly representable in decimal
            float("inf"),
            [Fraction(1, 3), Fraction(2, 3)],
            [0.25, 0.5],
            [],
        ],
    )
    def test_round_trip_is_exact(self, value):
        decoded = decode_value(encode_value(value))
        if isinstance(value, tuple):
            value = list(value)
        assert decoded == value
        assert type(decoded) is type(value) or isinstance(value, list)

    def test_fraction_survives_json(self):
        encoded = json.loads(json.dumps(encode_value(Fraction(22, 7))))
        assert decode_value(encoded) == Fraction(22, 7)

    def test_tokens_need_value_identity(self):
        assert task_token(leader_election(3)) is not None
        assert task_token(object()) is None
        assert query_token("digest", "limit", object(), None, "exact") is None

    def test_distinct_tasks_get_distinct_tokens(self):
        one = query_token(
            "d", "limit", leader_election(4), None, "exact"
        )
        other = query_token(
            "d", "limit", k_leader_election(4, 2), None, "exact"
        )
        assert one != other

    def test_solvable_keys_exact_under_any_backend(self):
        task = leader_election(3)
        assert query_token("d", "solvable", task, None, "float") == (
            query_token("d", "solvable", task, None, "exact")
        )

    #: Per backend, the (limit, series t=4, expected) tokens of leader
    #: election on (2, 3) under three chain keys: adversarial ports, the
    #: blackboard, and adversarial ports with the quotient tag.
    @pytest.mark.parametrize("backend, tokens", [
        ("exact", {
            "adversarial": (
                "e3abc2241cfd6a808950a0a790815cf2945001246db30c60b15dc6f53c86a821",
                "c715e3d008f44a5d2fae8b59ed86200a83600d2a59f1e40c37fd1ac9b3dbc501",
                "3b2d9cb51ee156db8fde6d15a92d4949aa08ebf28751030c503c5e21471609e3",
            ),
            "blackboard": (
                "af4580b985188768aad9d1dbe49c69734ce07d1dd2f098d664c191f192f392e5",
                "b50bed336df53e214f341469507f016bb33488a490e238dc5512c409d9f0f04e",
                "21adcd948184eac6e9b3c9942c08ffd8abcd6f2f6b13a397432f8feef0f9d552",
            ),
            "quotient": (
                "235f95a3274d0d08e069632fc0612beadd48aca403cc112ac96f47e4f352979b",
                "da23bcf2fd06833e7a7fe6a536ce741d45dcee1c35ee09fdfc87fe5cd79ee6ca",
                "03597a531a91f0b86e71d5c3c45bd47bc4df5be4be30172cd6c511f26582ce5b",
            ),
        }),
        ("float", {
            "adversarial": (
                "485e9ac686186dd79c9b150b45265d3db0ad9add65b646ae8022713d3cba1d2a",
                "1b1338e1ba9f9755be043a96aa9eb1602e12bd3f12b51b42acd2b1f30d46f600",
                "7ecfc0bac0a29a23877689246c7d361391e44c6d33972984b0880c665fe18e80",
            ),
            "blackboard": (
                "eff03049c9758f4d87edd5fdc0ffbe918296a8f4701ad1a198c5af2e6e78362b",
                "395d3c10ba8cfe999f755191b3deb667ec53376ab9f4fc6f8e1a72a613b2b57e",
                "ee90f28b66776327d4c1bdd9e0bc969305308f0939deeec0f1694d572af23f19",
            ),
            "quotient": (
                "03a246a2fb7209ede94612b91b7b2474ad699853ccbd022a3c8c41f514bd108a",
                "c269a0d9394a02ed4ddcd33ea928ea0d48adb8583a77cf4c87bbcd8d9f7776db",
                "76f697b3fe9ca15cc420c9d2efe7ace11aa10648a224b9719098ae81aa5bd7ff",
            ),
        }),
    ])
    def test_tokens_are_pinned(self, backend, tokens):
        # Warehouses written by earlier releases stay warm only while
        # the tokens of (chain, quantity, task, horizon, backend) hold.
        from repro.chain.engine import key_digest

        alpha = RandomnessConfiguration.from_group_sizes((2, 3))
        ports = adversarial_assignment((2, 3))
        chains = {
            "adversarial": compile_chain(alpha, ports),
            "blackboard": compile_chain(alpha),
            "quotient": compile_chain(alpha, ports, quotient=True),
        }
        task = leader_election(5)
        assert {
            name: tuple(
                query_token(
                    key_digest(chain.key), quantity, task, horizon, backend
                )
                for quantity, horizon in (
                    ("limit", None), ("series", 4), ("expected", None)
                )
            )
            for name, chain in chains.items()
        } == tokens


class TestRunQueriesMemo:
    def test_exact_hits_are_byte_identical(self, memo):
        alpha = RandomnessConfiguration.from_group_sizes((2, 3))
        chain = compile_chain(alpha, adversarial_assignment((2, 3)))
        cold = run_queries(chain, queries_for(5))
        assert memo.stats()["entries"] == len(cold)
        warm = run_queries(chain, queries_for(5))
        assert warm == cold
        for lhs, rhs in zip(warm, cold):
            assert type(lhs) is type(rhs)
        assert memo.stats()["hits"] >= len(cold)

    def test_float_hits_are_bit_exact(self, memo):
        alpha = RandomnessConfiguration.from_group_sizes((2, 3))
        chain = compile_chain(alpha, adversarial_assignment((2, 3)))
        cold = run_queries(chain, queries_for(5), backend="float")
        warm = run_queries(chain, queries_for(5), backend="float")
        assert warm == cold

    def test_backends_never_share_entries(self, memo):
        alpha = RandomnessConfiguration.from_group_sizes((2, 3))
        chain = compile_chain(alpha, adversarial_assignment((2, 3)))
        task = leader_election(5)
        exact = run_queries(chain, [Query.limit(task)])[0]
        floaty = run_queries(chain, [Query.limit(task)], backend="float")[0]
        assert isinstance(exact, Fraction)
        assert isinstance(floaty, float)

    def test_group_queries_skip_memoized_items(self, memo):
        items = []
        for shape in [(2, 3), (1, 2, 2), (5,)]:
            alpha = RandomnessConfiguration.from_group_sizes(shape)
            chain = compile_chain(alpha, adversarial_assignment(shape))
            items.append((chain, queries_for(5)))
        cold = run_group_queries(items)
        # Memoize only the first item fully, then re-ask everything: the
        # group pass must answer the rest and splice hits back in order.
        warm = run_group_queries(items)
        assert warm == cold
        partial = run_group_queries(items[:1] + [items[2]])
        assert partial == [cold[0], cold[2]]

    def test_memo_survives_process_restart(self, tmp_path, monkeypatch):
        from repro.results import memo as memo_module

        alpha = RandomnessConfiguration.from_group_sizes((2, 3))
        chain = compile_chain(alpha, adversarial_assignment((2, 3)))
        context = ExecutionContext(results_memo=tmp_path / "memo")
        with use_context(context):
            cold = run_queries(chain, queries_for(5))
            # A "new process": no memo built yet, so the next lookup
            # loads a fresh instance from the directory.
            monkeypatch.setattr(memo_module, "_MEMO", None)
            fresh = query_memo()
            assert len(fresh) == len(cold)
            warm = run_queries(chain, queries_for(5))
        assert warm == cold
        assert fresh.stats()["hits"] == len(cold)

    def test_no_memo_means_no_overhead_path(self):
        assert query_memo() is None
        alpha = RandomnessConfiguration.from_group_sizes((2, 3))
        chain = compile_chain(alpha, adversarial_assignment((2, 3)))
        assert run_queries(chain, [Query.limit(leader_election(5))])


class TestWarmSweepIdentity:
    def test_warm_rerun_is_byte_identical_minus_timing(self, tmp_path):
        sweep = SweepSpec.for_total_size(
            4, models=("blackboard", "clique"), tasks=("leader", "weak-sb")
        )
        warehouse = tmp_path / "warehouse"
        run_sweep(sweep, run_dir=tmp_path / "cold", warehouse=warehouse)
        clear_memo()  # drop compiled chains: warm must win via the memo
        outcome = run_sweep(
            sweep, run_dir=tmp_path / "warm", warehouse=warehouse
        )
        # Every exact cell came from the memo, no chain was compiled.
        assert sum(g["memo_hits"] for g in outcome.group_stats) == (
            outcome.total
        )
        assert all(g["chains"] == 0 for g in outcome.group_stats)

        def lines(path):
            return [
                {k: v for k, v in json.loads(line).items() if k != "elapsed"}
                for line in path.read_text().splitlines()
            ]

        assert lines(tmp_path / "cold" / "records.jsonl") == lines(
            tmp_path / "warm" / "records.jsonl"
        )
