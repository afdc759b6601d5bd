"""Tests for MauiConfig, DFSConfig and the Fig. 6 config-file parser."""

import pytest

from repro.maui.config import (
    DFSConfig,
    DFSPolicy,
    MauiConfig,
    PrincipalLimits,
    parse_maui_config,
)
from repro.units import UNLIMITED

FIG6 = r"""
DFSPOLICY          DFSSINGLEANDTARGETDELAY
DFSINTERVAL        06:00:00
DFSDECAY           0.4
USERCFG[user01]    DFSDYNDELAYPERM=1 DFSTARGETDELAYTIME=3600 \
                   DFSSINGLEDELAYTIME=0
USERCFG[user02]    DFSDYNDELAYPERM=0
USERCFG[user03]    DFSDYNDELAYPERM=1 DFSTARGETDELAYTIME=0 \
                   DFSSINGLEDELAYTIME=00:30:00
USERCFG[user04]    DFSDYNDELAYPERM=1 DFSTARGETDELAYTIME=02:00:00 \
                   DFSSINGLEDELAYTIME=00:15:00
GROUPCFG[group05]  DFSTARGETDELAYTIME=04:00:00
GROUPCFG[group06]  DFSDYNDELAYPERM=0
"""


class TestDFSPolicy:
    def test_parse_canonical_names(self):
        assert DFSPolicy.parse("NONE") is DFSPolicy.NONE
        assert DFSPolicy.parse("DFSSingleJobDelay") is DFSPolicy.SINGLE_JOB_DELAY
        assert DFSPolicy.parse("dfstargetdelay") is DFSPolicy.TARGET_DELAY
        assert (
            DFSPolicy.parse("DFSSINGLEANDTARGETDELAY")
            is DFSPolicy.SINGLE_AND_TARGET_DELAY
        )

    def test_parse_paper_alias(self):
        # the paper also calls the combined policy "DFSSingleTargetDelay"
        assert DFSPolicy.parse("DFSSingleTargetDelay") is DFSPolicy.SINGLE_AND_TARGET_DELAY

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            DFSPolicy.parse("DFSMAGIC")

    def test_check_flags(self):
        assert DFSPolicy.SINGLE_JOB_DELAY.checks_single
        assert not DFSPolicy.SINGLE_JOB_DELAY.checks_target
        assert DFSPolicy.TARGET_DELAY.checks_target
        assert not DFSPolicy.TARGET_DELAY.checks_single
        assert DFSPolicy.SINGLE_AND_TARGET_DELAY.checks_single
        assert DFSPolicy.SINGLE_AND_TARGET_DELAY.checks_target


class TestDFSConfig:
    def test_defaults(self):
        dfs = DFSConfig()
        assert dfs.policy is DFSPolicy.NONE
        assert dfs.interval == 3600.0
        assert dfs.decay == 0.0

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            DFSConfig(interval=0)

    def test_invalid_decay(self):
        with pytest.raises(ValueError):
            DFSConfig(decay=1.5)

    def test_target_delay_for_all(self):
        dfs = DFSConfig.target_delay_for_all(500.0)
        assert dfs.policy is DFSPolicy.TARGET_DELAY
        assert dfs.default_user.target_delay_time == 500.0

    def test_limits_for_user_fallback(self):
        dfs = DFSConfig()
        records = dfs.limits_for(user="nobody")
        assert records == [("user", "nobody", dfs.default_user)]

    def test_limits_for_includes_configured_group(self):
        dfs = DFSConfig(groups={"g": PrincipalLimits(dyn_delay_perm=False)})
        kinds = [k for k, _, _ in dfs.limits_for(user="u", group="g")]
        assert kinds == ["user", "group"]

    def test_limits_for_skips_unconfigured_group(self):
        dfs = DFSConfig()
        kinds = [k for k, _, _ in dfs.limits_for(user="u", group="g")]
        assert kinds == ["user"]


class TestMauiConfig:
    def test_plan_depth_is_max_of_depths(self):
        config = MauiConfig(reservation_depth=2, reservation_delay_depth=7)
        assert config.plan_depth == 7
        config = MauiConfig(reservation_depth=5, reservation_delay_depth=1)
        assert config.plan_depth == 5

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            MauiConfig(reservation_depth=-1)

    @pytest.mark.parametrize("shards", [0, -1])
    def test_shard_count_below_one_rejected(self, shards):
        with pytest.raises(ValueError, match="scheduler_shards must be >= 1"):
            MauiConfig(scheduler_shards=shards)


class TestParseMauiConfig:
    def test_fig6_full(self):
        config = parse_maui_config(FIG6, MauiConfig())
        dfs = config.dfs
        assert dfs.policy is DFSPolicy.SINGLE_AND_TARGET_DELAY
        assert dfs.interval == 6 * 3600
        assert dfs.decay == 0.4
        u1 = dfs.users["user01"]
        assert u1.dyn_delay_perm
        assert u1.target_delay_time == 3600.0
        assert u1.single_delay_time == UNLIMITED  # configured 0 = unlimited
        assert not dfs.users["user02"].dyn_delay_perm
        u3 = dfs.users["user03"]
        assert u3.target_delay_time == UNLIMITED
        assert u3.single_delay_time == 1800.0
        u4 = dfs.users["user04"]
        assert u4.target_delay_time == 7200.0
        assert u4.single_delay_time == 900.0
        assert dfs.groups["group05"].target_delay_time == 14400.0
        assert not dfs.groups["group06"].dyn_delay_perm

    def test_principal_names_keep_case(self):
        config = parse_maui_config("USERCFG[MixedCase] DFSDYNDELAYPERM=0\n", MauiConfig())
        assert "MixedCase" in config.dfs.users

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nDFSPOLICY NONE  # trailing\n"
        config = parse_maui_config(text, MauiConfig())
        assert config.dfs.policy is DFSPolicy.NONE

    def test_reservation_depths(self):
        config = parse_maui_config(
            "RESERVATIONDEPTH 5\nRESERVATIONDELAYDEPTH 7\n", MauiConfig()
        )
        assert config.reservation_depth == 5
        assert config.reservation_delay_depth == 7

    def test_backfill_policy(self):
        assert parse_maui_config("BACKFILLPOLICY NONE\n", MauiConfig()).backfill_enabled is False
        assert parse_maui_config("BACKFILLPOLICY FIRSTFIT\n", MauiConfig()).backfill_enabled is True

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration parameter"):
            parse_maui_config("DFSPOLICIE NONE\n", MauiConfig())

    def test_unknown_principal_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown principal parameter"):
            parse_maui_config("USERCFG[u] DFSWRONG=1\n", MauiConfig())

    def test_bad_perm_value_rejected(self):
        with pytest.raises(ValueError):
            parse_maui_config("USERCFG[u] DFSDYNDELAYPERM=yes\n", MauiConfig())

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="KEY=VALUE"):
            parse_maui_config("USERCFG[u] DFSDYNDELAYPERM\n", MauiConfig())

    def test_empty_principal_name_rejected(self):
        with pytest.raises(ValueError, match="empty principal"):
            parse_maui_config("USERCFG[] DFSDYNDELAYPERM=0\n", MauiConfig())

    def test_account_class_qos_tables(self):
        text = (
            "ACCOUNTCFG[proj1] DFSTARGETDELAYTIME=100\n"
            "CLASSCFG[debug] DFSDYNDELAYPERM=0\n"
            "QOSCFG[gold] DFSSINGLEDELAYTIME=50\n"
        )
        config = parse_maui_config(text, MauiConfig())
        assert config.dfs.accounts["proj1"].target_delay_time == 100.0
        assert not config.dfs.classes["debug"].dyn_delay_perm
        assert config.dfs.qos["gold"].single_delay_time == 50.0

    def test_repeated_principal_merges(self):
        text = (
            "USERCFG[u] DFSTARGETDELAYTIME=100\n"
            "USERCFG[u] DFSSINGLEDELAYTIME=10\n"
        )
        config = parse_maui_config(text, MauiConfig())
        assert config.dfs.users["u"].target_delay_time == 100.0
        assert config.dfs.users["u"].single_delay_time == 10.0

    def test_trailing_continuation(self):
        config = parse_maui_config("USERCFG[u] DFSDYNDELAYPERM=0 \\\n", MauiConfig())
        assert not config.dfs.users["u"].dyn_delay_perm

    def test_invalid_final_decay_validated(self):
        with pytest.raises(ValueError):
            parse_maui_config("DFSDECAY 2.0\n", MauiConfig())

    def test_scheduler_shards(self):
        assert parse_maui_config("SCHEDULERSHARDS 2\n", MauiConfig()).scheduler_shards == 2
        with pytest.raises(ValueError, match="scheduler_shards must be >= 1"):
            parse_maui_config("SCHEDULERSHARDS 0\n", MauiConfig())
