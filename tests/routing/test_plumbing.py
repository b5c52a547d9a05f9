"""Routing flows end-to-end through the sweep/sharding/CLI plumbing:
spec validation, cell identity, run_cell, and the argument surface."""

import pytest

from repro.analysis.sweep import run_cell
from repro.cli import build_parser
from repro.parallel.sharding import SweepSpec


def spec(**kwargs):
    base = dict(protocols=("qlec",), lambdas=(4.0,), seeds=(0,), rounds=3)
    base.update(kwargs)
    return SweepSpec(**base)


class TestSweepSpec:
    def test_default_is_direct(self):
        assert spec().routing == "direct"

    def test_rejects_unknown_substrate(self):
        with pytest.raises(ValueError):
            spec(routing="flood")

    def test_payload_round_trip(self):
        s = spec(routing="tree")
        assert SweepSpec.from_payload(s.to_payload()) == s

    def test_fingerprint_and_cell_ids_diverge_by_substrate(self):
        """tree artifacts must never resume into or merge with direct
        ones — both the spec fingerprint and every cell ID change."""
        direct, tree = spec(), spec(routing="tree")
        assert direct.fingerprint != tree.fingerprint
        ids_direct = [c.cell_id for c in direct.cells()]
        ids_tree = [c.cell_id for c in tree.cells()]
        assert set(ids_direct).isdisjoint(ids_tree)

    def test_cell_kwargs_carry_routing(self):
        assert spec(routing="qspt").cell_kwargs()["routing"] == "qspt"

    def test_cell_config_fingerprints_embed_routing(self):
        """The materialised per-cell config hashes the routing kind, so
        the same grid point under different substrates never shares a
        config fingerprint."""
        direct = {c.config_fingerprint for c in spec().cells()}
        tree = {c.config_fingerprint for c in spec(routing="tree").cells()}
        assert direct.isdisjoint(tree)


class TestWorkerArgs:
    def test_default_cell_fn_accepts_cell_args_and_routes(self):
        """The shard/scheduler worker's default cell, called with the
        spec's cell kwargs, must actually run the substrate the spec
        (and hence the cell ID) pinned — a dropped routing argument
        would silently compute direct cells under tree IDs."""
        from repro.parallel.sharding import _guarded_cell

        s = spec(routing="tree", rounds=2)
        cell = s.cells()[0]
        status, row, _ = _guarded_cell(
            None, (cell.protocol, cell.lam, cell.seed), 0, s.cell_kwargs()
        )
        assert status == "ok"
        assert row["routing"]["kind"] == "tree"


class TestRunCell:
    def test_run_cell_routes(self):
        row = run_cell("qlec", 4.0, 0, 0.25, 2, routing="tree")
        assert row["routing"]["kind"] == "tree"
        assert row["routing"]["broadcasts"] > 0

    def test_run_cell_direct_keeps_legacy_row_shape(self):
        row = run_cell("qlec", 4.0, 0, 0.25, 2)
        assert "routing" not in row

    def test_run_cell_rejects_unknown_substrate(self):
        with pytest.raises(ValueError):
            run_cell("qlec", 4.0, 0, 0.25, 2, routing="flood")


class TestCli:
    @pytest.mark.parametrize("cmd", ["quickstart", "sweep", "scenario"])
    def test_routing_flag_parses(self, cmd):
        parser = build_parser()
        tail = {"quickstart": [], "sweep": [], "scenario": ["table2"]}[cmd]
        args = parser.parse_args([cmd, *tail, "--routing", "tree"])
        assert args.routing == "tree"
        args = parser.parse_args([cmd, *tail])
        assert args.routing == "direct"

    def test_routing_flag_rejects_unknown(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["quickstart", "--routing", "flood"])
