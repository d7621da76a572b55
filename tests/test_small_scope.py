"""Every request in a small scope, run in process through the CLI.

Each output is checked against the oracles, which read the explicit open
sets: the topology test, the component labels and the quotient topology.
"""

import json

from mvalg.cli import main
from mvalg.oracles import components_bruteforce, is_topology_pairwise
from mvalg.topology import FinSpace, bits


def _opens_json(opens):
    return [sorted(bits(o)) for o in sorted(opens)]


def test_pi0_on_every_family_of_opens_up_to_three_points(capsys):
    topologies = 0
    for n in range(4):
        for family in range(1 << (1 << n)):
            opens = [w for w in range(1 << n) if family >> w & 1]
            request = {"points": n, "opens": _opens_json(opens)}
            code = main(["pi0", "--space", json.dumps(request)])
            out = capsys.readouterr().out
            if not is_topology_pairwise(n, opens):
                assert code == 2 and out == ""
                continue
            assert code == 0
            payload = json.loads(out)
            assert payload["space"] == request
            labels = components_bruteforce(FinSpace.from_sets(n, request["opens"]))
            assert payload["class_of"] == list(labels)
            k = len(set(labels))
            assert payload["classes"] == k
            assert payload["quotient"] == {"points": k, "opens": _opens_json(range(1 << k))}
            topologies += 1
    assert topologies == 1 + 1 + 4 + 29
