"""The Def.-3 validity gate: catches every class of broken tables."""

import pytest

from repro.metrics.validate import ValidationError, validate_routing
from repro.routing import MinHopRouting, UpDownRouting


@pytest.fixture
def good(ring6):
    return UpDownRouting().route(ring6)


def test_good_routing_passes(good):
    validate_routing(good)


def test_foreign_channel_detected(ring6, good):
    j = 0
    v = ring6.switches[0]
    # a channel that does not originate at v
    other = ring6.out_channels[ring6.switches[2]][0]
    good.next_channel[v, j] = other
    with pytest.raises(ValidationError, match="does not originate"):
        validate_routing(good)


def test_missing_route_detected(ring6, good):
    d = good.dests[0]
    j = good.dest_index(d)
    v = next(s for s in ring6.switches
             if s != (d if ring6.is_switch(d)
                      else ring6.terminal_switch(d)))
    good.next_channel[v, j] = -1
    with pytest.raises(ValidationError):
        validate_routing(good)


def test_forwarding_loop_detected(ring6, good):
    d = good.dests[-1]
    j = good.dest_index(d)
    s0, s1 = ring6.switches[0], ring6.switches[1]
    good.next_channel[s0, j] = ring6.find_channels(s0, s1)[0]
    good.next_channel[s1, j] = ring6.find_channels(s1, s0)[0]
    with pytest.raises(ValidationError, match="forwarding loop"):
        validate_routing(good)


def test_deadlock_detected(ring6):
    res = MinHopRouting().route(ring6)
    with pytest.raises(ValidationError, match="cycle"):
        validate_routing(res)
    # but passes when the deadlock check is waived
    validate_routing(res, check_deadlock=False)


def test_source_subset(ring6, good):
    validate_routing(good, sources=ring6.terminals[:2])
