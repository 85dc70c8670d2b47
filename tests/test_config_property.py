"""Property tests of the config boundary: a junk value in any numeric
setting, or any codec or interface name, either fails `validate` with exit 1
or runs to completion with exit 0 or 2, and a run writes only inside its out
dir. A config that validates reads back from its manifest settings as
itself.
"""

import copy
import json
import tempfile
from pathlib import Path

import yaml
from hypothesis import example, given, settings, strategies as st

from sipswitch import cli, config
from sipswitch.config import config_as_dict, config_from_settings
from sipswitch.core import CODEC_RULES
from sipswitch.metrics import EMODEL_RULES
from sipswitch.sip import SIGNALING_RULES

# One cell, one repetition, a 2 s call on a custom copy of G729, so every
# key path below exists in the file.
TINY = {
    "codecs": ["X"],
    "custom_codecs": {"X": {"bitrate_kbps": 8.0, "packet_interval_ms": 20.0,
                            "payload_bytes": 20, "ie": 11.0, "bpl": 19.0}},
    "procedures": ["hard"],
    "directions": ["cellular-to-wlan"],
    "repetitions": 1,
    "call_duration_s": 2.0,
    "switch_time_s": 1.0,
    "window_len_ms": 500.0,
    "stride_ms": 500.0,
    "watchdog_s": 10.0,
    "header_overhead_bytes": 40,
    "base_seed": 1,
    "switch_jitter_s": 0.0,
    "interfaces": {"cellular": {"q_weight": 0.9, "bitrate_kbps": 384,
                                "prop_delay_ms": [40, 80],
                                "queue_capacity_pkts": 50, "loss_prob": 0.0}},
    "signaling": {"invite_bytes": 700, "register_bytes": 450,
                  "ok_bytes": 450, "ack_bytes": 450, "rtx_interval_ms": 500,
                  "max_retransmissions": 1, "fallback_timeout_ms": 2000},
    "emodel": {"r0": 93.2, "delay_coeff_a": 0.024, "delay_coeff_b": 0.11,
               "delay_threshold_ms": 177.3, "loss_ceiling": 95.0},
}


def _paths(node, prefix=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif not isinstance(node, list) or all(isinstance(v, int) for v in node):
        yield prefix
        if isinstance(node, list):  # a [low, high] delay
            for idx in range(len(node)):
                yield prefix + (idx,)


NUMERIC_PATHS = list(_paths(TINY))

# Keys whose accepted values can make a run arbitrarily long: validate only.
SCALE_THE_WORK = {"call_duration_s", "repetitions"}

JUNK = st.one_of(
    st.floats(),  # nan, +-inf, subnormals, huge and negative values
    st.integers(min_value=-2 ** 80, max_value=2 ** 80),
    st.sampled_from([0, 1, -1, 0.5, 1.5, 5e-324, -5e-324, 1e-7, 1e308,
                     2 ** 63, 65_535, 65_536, 2 ** 53]),
    st.booleans(), st.none(), st.text(max_size=4),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=3),
)


def test_every_numeric_setting_is_covered():
    names = {p[-1] for p in NUMERIC_PATHS if isinstance(p[-1], str)}
    assert names == (set(config.SETTING_RULES) | set(config._INTERFACE_RULES)
                     | set(CODEC_RULES) | set(SIGNALING_RULES)
                     | set(EMODEL_RULES))


# derandomize keeps the suite's outcome fixed; drop it and raise max_examples
# to search further.
@settings(max_examples=400, deadline=None, derandomize=True)
@given(path=st.sampled_from(NUMERIC_PATHS), value=JUNK)
# a delay near the top of its range that reads back from its us only as
# us / 1000: us * 0.001 gives 8782039921448021 us
@example(path=("interfaces", "cellular", "prop_delay_ms"),
         value=[0, 8782039921448.02])
def test_junk_in_any_numeric_setting_fails_validate_or_runs(path, value):
    config = copy.deepcopy(TINY)
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config["out_dir"] = str(Path(tmp) / "out")
        cfg = Path(tmp) / "config.yaml"
        cfg.write_text(yaml.safe_dump(config))
        rc = cli.main(["validate", str(cfg)])
        assert rc in (0, 1)
        if rc == 0:
            # settings -> config -> settings is the identity, as JSON text
            # (an int that turns into a float shows)
            written = config_as_dict(cli.load_config(str(cfg)))
            want = json.dumps(written, sort_keys=True)
            assert json.dumps(config_as_dict(config_from_settings(written)),
                              sort_keys=True) == want
        if rc == 0 and path[0] not in SCALE_THE_WORK:
            assert cli.main(["run", str(cfg)]) in (0, 2)


# Names drawn from the characters that matter to a path or a CSV row, and
# the pinned names that used to escape the out dir. At most six characters:
# "../../" climbs two levels, so every write stays inside the temporary
# directory even where the out dir is escaped.
NAMES = st.one_of(st.sampled_from(["..", "../x", "a/b", ""]),
                  st.text("ab/\0.,-_", max_size=6))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=NAMES, as_codec=st.booleans(), twice=st.booleans())
def test_any_name_fails_validate_or_runs_inside_the_out_dir(name, as_codec,
                                                            twice):
    config = copy.deepcopy(TINY)
    if as_codec:
        config["custom_codecs"] = {name: TINY["custom_codecs"]["X"]}
        config["codecs"] = [name] * (1 + twice)
    else:
        config["interfaces"][name] = {"technology": "wired", "q_weight": 0.5}
        config["directions"] = [f"cellular-to-{name}"] * (1 + twice)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "d1", "d2", "d3", "out")
        config["out_dir"] = str(out)
        cfg = Path(tmp) / "config.yaml"
        cfg.write_text(yaml.safe_dump(config))
        rc = cli.main(["validate", str(cfg)])
        assert rc in (0, 1)
        if rc == 0:
            assert cli.main(["run", str(cfg)]) in (0, 2)
        written = [path for path in Path(tmp).rglob("*")
                   if path.is_file() and path != cfg]
        assert all(out in path.parents for path in written)
