"""DistConfig knobs: validation, backoff curve, env/override layering."""

import pytest

from repro.dist.config import ENV_KNOBS, DistConfig


class TestValidation:
    def test_defaults_are_valid(self):
        DistConfig()

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"lease_ttl": 0}, "lease_ttl"),
            ({"lease_ttl": -1.0}, "lease_ttl"),
            ({"heartbeat_interval": 0}, "heartbeat_interval"),
            ({"lease_ttl": 1.0, "heartbeat_interval": 2.0},
             "heartbeat_interval"),
            ({"max_attempts": 0}, "max_attempts"),
            ({"backoff_base": -0.1}, "backoff"),
            ({"poll_interval": 0}, "poll_interval"),
        ],
    )
    def test_bad_knobs_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            DistConfig(**kwargs)


class TestBackoff:
    def test_exponential_curve_with_cap(self):
        cfg = DistConfig(backoff_base=0.5, backoff_cap=3.0)
        assert cfg.backoff_delay(1) == 0.5
        assert cfg.backoff_delay(2) == 1.0
        assert cfg.backoff_delay(3) == 2.0
        assert cfg.backoff_delay(4) == 3.0  # capped
        assert cfg.backoff_delay(10) == 3.0

    def test_nonpositive_attempt_is_free(self):
        assert DistConfig().backoff_delay(0) == 0.0


class TestFromEnv:
    def test_empty_env_gives_defaults(self):
        assert DistConfig.from_env({}) == DistConfig()

    def test_env_knobs_apply(self):
        cfg = DistConfig.from_env(
            {
                "REPRO_LEASE_TTL": "30",
                "REPRO_HEARTBEAT_INTERVAL": "5",
                "REPRO_MAX_ATTEMPTS": "7",
            }
        )
        assert cfg.lease_ttl == 30.0
        assert cfg.heartbeat_interval == 5.0
        assert cfg.max_attempts == 7

    def test_overrides_beat_env(self):
        cfg = DistConfig.from_env(
            {"REPRO_LEASE_TTL": "30"}, lease_ttl=45.0
        )
        assert cfg.lease_ttl == 45.0

    def test_none_overrides_are_ignored(self):
        cfg = DistConfig.from_env({}, lease_ttl=None, max_attempts=None)
        assert cfg == DistConfig()

    def test_bad_env_value_names_the_variable(self):
        with pytest.raises(ValueError, match="REPRO_LEASE_TTL"):
            DistConfig.from_env({"REPRO_LEASE_TTL": "soon"})
        with pytest.raises(ValueError, match="REPRO_MAX_ATTEMPTS"):
            DistConfig.from_env({"REPRO_MAX_ATTEMPTS": "2.5"})

    def test_worker_local_knobs_have_no_env_var(self):
        # backoff and polling only pace one worker; nothing a joining
        # process must share, so the environment does not reach them
        env = {
            "REPRO_BACKOFF_BASE": "9",
            "REPRO_BACKOFF_CAP": "9",
            "REPRO_POLL_INTERVAL": "9",
        }
        assert DistConfig.from_env(env) == DistConfig()
        assert sorted(ENV_KNOBS) == [
            "REPRO_HEARTBEAT_INTERVAL", "REPRO_LEASE_TTL", "REPRO_MAX_ATTEMPTS",
        ]

    def test_every_knob_has_a_config_field(self):
        fields = set(DistConfig.__dataclass_fields__)
        assert set(ENV_KNOBS.values()) <= fields
