"""Error-path and robustness tests for the policy DSL."""

import pytest

from repro.policydsl import (
    CompileError,
    ParseError,
    compile_policy,
    parse_policy,
)
from repro.policydsl.lexer import LexerError, tokenize


class TestLexerErrors:
    def test_stray_character(self):
        with pytest.raises(LexerError):
            tokenize("tier1 @ {}")

    def test_error_reports_position(self):
        with pytest.raises(LexerError) as err:
            tokenize("ok\nok @")
        assert err.value.line == 2


class TestParserErrors:
    def test_missing_policy_name(self):
        with pytest.raises(ParseError):
            parse_policy("Tiera () {}")

    def test_missing_paren_in_params(self):
        with pytest.raises(ParseError):
            parse_policy("Tiera X(time t {}")

    def test_bad_property_separator(self):
        with pytest.raises(ParseError):
            parse_policy("Tiera X() { tier1: {name ; S3}; }")

    def test_action_args_need_keywords(self):
        with pytest.raises(ParseError):
            parse_policy("""
            Tiera X() {
                tier1: {name: S3};
                event(insert.into) : response { store(tier1); }
            }
            """)

    def test_nested_tiers_only_in_regions(self):
        with pytest.raises(ParseError):
            parse_policy("""
            Tiera X() {
                tier1: {name: S3, inner = {name: EBS}};
            }
            """)

    def test_empty_policy_parses_but_fails_compile(self):
        doc = parse_policy("Tiera Empty() { }")
        with pytest.raises(ValueError):
            compile_policy(doc)


class TestCompilerErrors:
    def test_unknown_response(self):
        text = """
        Tiera X() {
            tier1: {name: S3};
            event(insert.into) : response {
                teleport(what: insert.object, to: tier1);
            }
        }
        """
        with pytest.raises(CompileError):
            compile_policy(text)

    def test_store_requires_target(self):
        text = """
        Tiera X() {
            tier1: {name: S3};
            event(insert.into) : response { store(what: insert.object); }
        }
        """
        with pytest.raises(CompileError):
            compile_policy(text)

    def test_unknown_event_path(self):
        text = """
        Tiera X() {
            tier1: {name: S3};
            event(moon.phase == full) : response {
                store(what: insert.object, to: tier1);
            }
        }
        """
        with pytest.raises(CompileError):
            compile_policy(text)

    def test_selector_unknown_attribute(self):
        text = """
        Tiera X() {
            tier1: {name: S3};
            event(insert.into) : response {
                store(what: insert.object, to: tier1);
            }
            event(time = 5) : response {
                copy(what: object.mood == grumpy, to: tier1);
            }
        }
        """
        with pytest.raises(CompileError):
            compile_policy(text)

    def test_wiera_without_regions(self):
        text = """
        Wiera X() {
            event(insert.into) : response {
                store(what: insert.object, to: local_instance);
                queue(what: insert.object, to: all_regions);
            }
        }
        """
        with pytest.raises(CompileError):
            compile_policy(text, env={})

    def test_uninferrable_consistency(self):
        text = """
        Wiera X() {
            Region1 = {name: M, region: US-East};
            Region2 = {name: M, region: US-West};
            event(insert.into) : response {
                encrypt(what: insert.object);
            }
        }
        """
        from repro.tiera.policy import memory_only_policy
        with pytest.raises(CompileError):
            compile_policy(text, env={"M": memory_only_policy()})

    def test_unknown_consistency_target_name(self):
        text = """
        Wiera X() {
            Region1 = {name: M, region: US-East};
            Region2 = {name: M, region: US-West};
            event(insert.into) : response {
                lock(what: insert.key);
                store(what: insert.object, to: local_instance);
                copy(what: insert.object, to: all_regions);
                release(what: insert.key);
            }
            event(threshold.type == put) : response {
                if (threshold.latency > 800 ms && threshold.period > 30 seconds)
                    change_policy(what: consistency, to: QuantumConsistency);
            }
        }
        """
        from repro.tiera.policy import memory_only_policy
        with pytest.raises(CompileError):
            compile_policy(text, env={"M": memory_only_policy()})


class TestDslRobustness:
    def test_figure_typo_tolerated(self):
        """The paper's Figure 4 literally writes 'insert.oject'."""
        text = """
        Wiera Typo() {
            Region1 = {name: M, region: US-East};
            Region2 = {name: M, region: US-West};
            event(insert.into) : response {
                store(what: insert.oject, to: local_instance);
                queue(what: insert.object, to: all_regions);
            }
        }
        """
        from repro.tiera.policy import memory_only_policy
        spec = compile_policy(text, env={"M": memory_only_policy()})
        assert spec.consistency == "eventual"

    def test_comments_everywhere(self):
        text = """
        % leading comment
        Tiera C() {   % trailing comment
            tier1: {name: S3};  % on a declaration
            % a whole line
            event(insert.into) : response {
                store(what: insert.object, to: tier1); % after a statement
            }
        }
        """
        policy = compile_policy(text)
        assert policy.name == "C"

    def test_flexible_separators_in_regions(self):
        """Figures mix ':' and '=' inside region property maps."""
        text = """
        Wiera Mixed() {
            Region1 = {name: M, region = US-East, primary: True};
            Region2 = {name = M, region: US-West};
            event(insert.into) : response {
                if (local_instance.isPrimary == True) {
                    store(what: insert.object, to: local_instance);
                    copy(what: insert.object, to: all_regions);
                } else
                    forward(what: insert.object, to: primary_instance);
            }
        }
        """
        from repro.tiera.policy import memory_only_policy
        spec = compile_policy(text, env={"M": memory_only_policy()})
        assert next(p for p in spec.placements if p.primary).region == "us-east"
