"""Tests for the policy DSL: lexer, parser, compiler, built-ins."""

import pytest

from repro.core.global_policy import GlobalPolicySpec
from repro.policydsl import (
    BUILTIN_POLICIES,
    CompileError,
    LexerError,
    ParseError,
    ast,
    builtin_policy,
    compile_policy,
    parse_policy,
)
from repro.policydsl.lexer import tokenize
from repro.tiera.events import (
    FilledEvent,
    TimerEvent,
)
from repro.tiera.policy import LocalPolicy
from repro.tiera.responses import (
    CopyResponse,
    MoveResponse,
    SetAttrResponse,
    StoreResponse,
)
from repro.util.units import GB, HOUR, KB


class TestLexer:
    def test_quantities(self):
        kinds = [(t.kind, t.value) for t in tokenize("5G 40KB/s 50% 800")]
        assert kinds[:4] == [("QUANTITY", "5G"), ("QUANTITY", "40KB/s"),
                             ("QUANTITY", "50%"), ("NUMBER", "800")]

    def test_comment_to_eol(self):
        toks = tokenize("a % this is a comment\nb")
        assert [t.value for t in toks[:-1]] == ["a", "b"]

    def test_percent_suffix_not_comment(self):
        toks = tokenize("filled == 50% }")
        assert [t.value for t in toks[:-1]] == ["filled", "==", "50%", "}"]

    def test_dashed_identifiers(self):
        toks = tokenize("region: US-West")
        assert toks[2].value == "US-West"

    def test_operators(self):
        toks = tokenize("a == b && c >= d || e != f")
        ops = [t.value for t in toks if t.kind == "PUNCT"]
        assert ops == ["==", "&&", ">=", "||", "!="]

    def test_string_literal(self):
        toks = tokenize('x: "hello world"')
        assert toks[2].kind == "STRING" and toks[2].value == "hello world"

    def test_unterminated_string(self):
        with pytest.raises(LexerError):
            tokenize('x: "oops')

    def test_position_tracking(self):
        toks = tokenize("a\n  b")
        assert (toks[1].line, toks[1].col) == (2, 3)


class TestParser:
    def test_tiera_structure(self):
        doc = parse_policy(BUILTIN_POLICIES["LowLatencyInstance"][1])
        assert doc.scope == "tiera"
        assert doc.name == "LowLatencyInstance"
        assert [p.name for p in doc.params] == ["t"]
        assert [t.name for t in doc.tiers] == ["tier1", "tier2"]
        assert len(doc.rules) == 2

    def test_wiera_regions_with_overrides(self):
        doc = parse_policy(BUILTIN_POLICIES["MultiPrimariesConsistency"][1])
        assert doc.scope == "wiera"
        assert len(doc.regions) == 3
        region1 = doc.regions[0]
        assert "tier1" in region1.tiers
        assert str(region1.props["region"]) == "US-West"

    def test_if_else_parses(self):
        doc = parse_policy(BUILTIN_POLICIES["PrimaryBackupConsistency"][1])
        rule = doc.rules[0]
        assert isinstance(rule.body[0], ast.If)
        assert len(rule.body[0].orelse) == 1

    def test_options(self):
        doc = parse_policy(BUILTIN_POLICIES["ChangePrimary"][1])
        assert "queue_interval" in doc.options

    def test_bad_scope(self):
        with pytest.raises(ParseError):
            parse_policy("Storage X() {}")

    def test_unterminated_body(self):
        with pytest.raises(ParseError):
            parse_policy("Tiera X() { tier1: {name: S3};")

    def test_event_requires_response_keyword(self):
        with pytest.raises(ParseError):
            parse_policy("Tiera X() { tier1: {name: S3}; "
                         "event(insert.into) : action { } }")


class TestCompilerTiera:
    def test_low_latency_semantics(self):
        policy = builtin_policy("LowLatencyInstance", params={"t": 7.0})
        assert isinstance(policy, LocalPolicy)
        tiers = {t.name: t for t in policy.tiers}
        assert tiers["tier1"].profile.lower() == "memcached"
        assert tiers["tier1"].capacity == 5 * GB
        insert = policy.insert_rules(None)[0]
        assert isinstance(insert.responses[0], SetAttrResponse)
        assert isinstance(insert.responses[1], StoreResponse)
        timer = policy.timer_rules()[0]
        assert isinstance(timer.event, TimerEvent)
        assert timer.event.period == 7.0
        copy = timer.responses[0]
        assert isinstance(copy, CopyResponse)
        assert copy.what.location == "tier1" and copy.what.dirty is True
        assert copy.clear_dirty

    def test_persistent_semantics(self):
        policy = builtin_policy("PersistentInstance")
        wt = policy.insert_rules("tier1")[0]
        assert isinstance(wt.responses[0], CopyResponse)
        filled = policy.filled_rules()[0]
        assert isinstance(filled.event, FilledEvent)
        assert filled.event.fraction == 0.5
        assert filled.responses[0].bandwidth == 40 * KB

    def test_missing_timer_param_raises(self):
        with pytest.raises(CompileError):
            compile_policy(BUILTIN_POLICIES["LowLatencyInstance"][1],
                           params={})

    def test_unknown_tier_profile_fails_fast(self):
        text = """
        Tiera X() {
            tier1: {name: QuantumStorage, size: 5G};
            event(insert.into) : response {
                store(what: insert.object, to: tier1);
            }
        }
        """
        with pytest.raises(KeyError):
            compile_policy(text)


class TestCompilerWiera:
    def test_multi_primaries_inferred(self):
        spec = builtin_policy("MultiPrimariesConsistency")
        assert isinstance(spec, GlobalPolicySpec)
        assert spec.consistency == "multi_primaries"
        assert spec.regions() == ["us-west", "us-east", "eu-west"]

    def test_primary_backup_inferred_with_primary(self):
        spec = builtin_policy("PrimaryBackupConsistency")
        assert spec.consistency == "primary_backup"
        assert spec.sync_replication is True
        assert next(p for p in spec.placements if p.primary).region == "us-west"

    def test_eventual_inferred(self):
        spec = builtin_policy("EventualConsistency")
        assert spec.consistency == "eventual"
        assert spec.sync_replication is False

    def test_dynamic_consistency_thresholds(self):
        spec = builtin_policy("DynamicConsistency")
        assert spec.dynamic is not None
        assert spec.dynamic.latency_threshold == pytest.approx(0.8)
        assert spec.dynamic.period == pytest.approx(30.0)
        assert spec.dynamic.weak == "eventual"
        assert spec.dynamic.strong == "multi_primaries"

    def test_change_primary_async_queue(self):
        spec = builtin_policy("ChangePrimary")
        assert spec.consistency == "primary_backup"
        assert spec.sync_replication is False
        assert spec.queue_interval == 60.0
        assert spec.change_primary is not None
        assert spec.change_primary.period == pytest.approx(15.0)

    def test_tier_overrides_applied(self):
        spec = builtin_policy("MultiPrimariesConsistency")
        local = spec.placements[0].local_policy
        tiers = {t.name: t for t in local.tiers}
        assert tiers["tier1"].profile.lower() == "localmemory"
        assert tiers["tier2"].profile.lower() == "localdisk"

    def test_reduced_cost_cold_rule_attached(self):
        spec = builtin_policy("ReducedCostPolicy")
        local = spec.placements[0].local_policy
        cold = local.cold_rules()
        assert len(cold) == 1
        assert cold[0].event.age == pytest.approx(120 * HOUR)
        move = cold[0].responses[0]
        assert isinstance(move, MoveResponse)
        assert move.what.min_idle == pytest.approx(120 * HOUR)
        assert spec.consistency == "local"  # single replica

    def test_simpler_consistency_subregions(self):
        spec = builtin_policy("SimplerConsistency")
        assert spec.regions() == ["us-west-1", "us-west-2", "us-west-3"]
        assert next(p for p in spec.placements if p.primary).region == "us-west-1"

    def test_unknown_local_policy_in_region(self):
        text = """
        Wiera X() {
            Region1 = {name: MysteryInstance, region: US-East};
            event(insert.into) : response {
                store(what: insert.object, to: local_instance);
                queue(what: insert.object, to: all_regions);
            }
        }
        """
        with pytest.raises(CompileError):
            compile_policy(text, env={})

    def test_every_builtin_compiles(self):
        for name in BUILTIN_POLICIES:
            assert builtin_policy(name) is not None
