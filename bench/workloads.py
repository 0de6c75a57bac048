"""Workload definitions: the CLI jobs of each workload, the ``verify``
corpus and its seeded tampering.

A job is one ``saw`` invocation, run in-process through
``sawkit.cli.run``.  Sizes come in two sets: ``full`` for measuring and
``toy`` for the benchmark's own test.  ``count-2w`` runs six of the
``count`` jobs with two workers (keys ending ``_2w``); their outputs must
be byte-identical to one worker's, so both share one reference.
"""

from __future__ import annotations

import json
import random
import shlex
from fractions import Fraction

ZD3_CUBE = "3 0 0;0 3 0;0 0 3"

# id -> (argv at full size, argv at toy size); --workers is appended per
# workload.  Ratio jobs also get --deterministic and --out.
JOBS = {
    "zd2_n12": ("count --graph zd:2 --n 12", "count --graph zd:2 --n 6"),
    "zd3_n8": ("count --graph zd:3 --n 8", "count --graph zd:3 --n 6"),
    "ladder_n22": ("count --graph ladder --n 22",
                   "count --graph ladder --n 6"),
    "sqoct_n18": ("count --graph square-octagon --n 18",
                  "count --graph square-octagon --n 6"),
    "aug_zd2_n9": ("augment --graph zd:2 --chord '0:0,0 0:1,1' --n 9",
                   "augment --graph zd:2 --chord '0:0,0 0:1,1' --n 6"),
    "tree4_n8": ("count --graph tree:4 --n 8 --max-nodes 100000000",
                 "count --graph tree:4 --n 6 --max-nodes 100000000"),
    "zd3q_n8": (f"count --graph zd:3 --sublattice '{ZD3_CUBE}' --n 8",
                f"count --graph zd:3 --sublattice '{ZD3_CUBE}' --n 6"),
    "zd3q_events_n8": (f"events --graph zd:3 --sublattice '{ZD3_CUBE}' --n 8",
                       f"events --graph zd:3 --sublattice '{ZD3_CUBE}' --n 6"),
    "sqoctq_windowed_n14": (
        "events --graph square-octagon --sublattice '1 -1' --n 14 --m 2 --r 1",
        "events --graph square-octagon --sublattice '1 -1' --n 6 --m 2 --r 1"),
    "ratio_zd2": ("ratio --graph zd:2 --sublattice '2 0;0 2' --budget 13",
                  "ratio --graph zd:2 --sublattice '2 0;0 2' --budget 8"),
    "ratio_zd3": (f"ratio --graph zd:3 --sublattice '{ZD3_CUBE}' --budget 8",
                  f"ratio --graph zd:3 --sublattice '{ZD3_CUBE}' --budget 6"),
    "ratio_sqoct": ("ratio --graph square-octagon --sublattice '1 -1' "
                    "--mu-exact 1.8 --budget 18",
                    "ratio --graph square-octagon --sublattice '1 -1' "
                    "--mu-exact 1.8 --budget 8"),
    "ratio_ladder": ("ratio --graph ladder --sublattice 3 --mu-exact 1.61 "
                     "--budget 30",
                     "ratio --graph ladder --sublattice 3 --mu-exact 1.61 "
                     "--budget 8"),
}

COUNT_JOBS = ("zd2_n12", "zd3_n8", "ladder_n22", "sqoct_n18", "aug_zd2_n9",
              "tree4_n8", "zd3q_n8", "zd3q_events_n8", "sqoctq_windowed_n14")
# every count job that reaches the prefix split and the process pool
POOL_JOBS = ("zd2_n12", "zd3_n8", "ladder_n22", "sqoct_n18", "aug_zd2_n9",
             "zd3q_n8")
RATIO_JOBS = ("ratio_zd2", "ratio_zd3", "ratio_sqoct", "ratio_ladder")

# workload -> (job id, worker count) items; verify replays a corpus instead
WORKLOADS = {
    "count": tuple((j, 1) for j in COUNT_JOBS),
    "count-2w": tuple((j, 2) for j in POOL_JOBS),
    "certify": tuple((j, 1) for j in RATIO_JOBS),
    "verify": (),
}


def job_key(jid: str, workers: int) -> str:
    return jid if workers == 1 else f"{jid}_{workers}w"


# The genuine certificates of the verify corpus, each with the class of
# its tampered copies: id -> (graph, sublattice rows, --mu-exact value or
# None for bridge bounds, budget, tampering class).  The classes are fixed
# so that every seed replays the same mix of work.  "flip" and "delete"
# make one copy, whose change the seed picks; "null" needs a certified
# certificate and makes one copy per load-bearing parameter, so the share
# of copies that make today's verifier raise is the same for every seed.
CORPUS = {
    "ladder_3_mu": ("ladder", [[3]], "1.61", 30, "null"),
    "zd1_3_bridges": ("zd:1", [[3]], None, 10, "flip"),
    "zd2_2Z_mu": ("zd:2", [[2, 0], [0, 2]], "2.63", 12, "null"),
    "zd2_3Zx1_mu": ("zd:2", [[3, 0], [0, 1]], "2.63", 14, "delete"),
    "sqoct_1m1_mu": ("square-octagon", [[1, -1]], "1.8", 16, "flip"),
    "zd2_2Z_bridges": ("zd:2", [[2, 0], [0, 2]], None, 12, "delete"),
}

# Tampering classes whose expected verdict is fixed by construction:
# ok=False from verify_certificate, with no exception.
REQUIRED_FIELDS = ("format", "status", "budget", "degree", "cycle_length",
                   "parameters", "counts", "checks")
LOAD_BEARING = ("margin", "decay_index", "agreement_index", "block_length",
                "mu_upper_index")
# checks whose verdict the verifier re-derives, so a flip is a contradiction
REPLAYED_CHECKS = ("event_decay", "bound_agreement", "block_event_decay",
                   "block_growth", "entropy_factor", "block_factor")


def job_argv(job_id: str, toy: bool) -> list:
    return shlex.split(JOBS[job_id][1 if toy else 0])


def job_graph_specs(job_ids) -> list:
    """(graph, sublattice rows or None, chord or None) for each job."""
    specs = []
    for jid in job_ids:
        argv = job_argv(jid, False)
        opts = dict(zip(argv[1::2], argv[2::2]))
        specs.append((opts["--graph"], opts.get("--sublattice"),
                      opts.get("--chord")))
    return specs


def build_inputs(sk, job_ids) -> None:
    """Build the graphs, quotients and cycle families the jobs use."""
    for graph, rows, chord in job_graph_specs(job_ids):
        g = sk.catalog(graph)
        if chord is not None:
            u, v = chord.split()
            sk.augment(g, (g.parse_key(u), g.parse_key(v)))
        if rows is not None:
            parsed = [[int(t) for t in r.split()] for r in rows.split(";")]
            q = sk.build_quotient(g, sk.sublattice_action(parsed))
            sk.build_cycle_family(q, sk.classify_type(q))


def build_corpus(sk) -> dict:
    """id -> certificate JSON text, certified through the library."""
    out = {}
    for cid, (graph, rows, mu, budget, _) in CORPUS.items():
        g = sk.catalog(graph)
        q = sk.build_quotient(g, sk.sublattice_action(rows))
        family = sk.build_cycle_family(q, sk.classify_type(q))
        if mu is None:
            _, b = sk.bridge_bounds(g.dimension, budget, workers=1)
        else:
            b = sk.LowerBoundSequence.from_constant(
                Fraction(mu), g.graph_id, provenance="mu-exact")
        out[cid] = sk.certify_ratio(g, q, family, b, budget,
                                    workers=1).to_json()
    return out


def tamper(corpus: dict, seed: int) -> dict:
    """The tampered copies of the genuine certificates.

    Returns id -> (JSON text, description).  The seed picks which check a
    "flip" copy flips and which field a "delete" copy deletes; a "null"
    certificate gets one copy per load-bearing parameter.  Count digits
    are never changed: a count the proof does not read can change without
    any contradiction, so its expected verdict is not fixed.
    """
    rng = random.Random(f"tamper:{seed}")
    out = {}
    for cid, text in corpus.items():
        kind = CORPUS[cid][4]
        if kind == "flip":
            bad = json.loads(text)
            idx = rng.choice([i for i, c in enumerate(bad["checks"])
                              if c["name"] in REPLAYED_CHECKS])
            bad["checks"][idx]["holds"] = not bad["checks"][idx]["holds"]
            copies = [(bad, f"flip checks[{idx}] "
                            f"({bad['checks'][idx]['name']})")]
        elif kind == "delete":
            bad = json.loads(text)
            field = rng.choice(REQUIRED_FIELDS)
            del bad[field]
            copies = [(bad, f"delete {field}")]
        else:
            copies = []
            for field in LOAD_BEARING:
                bad = json.loads(text)
                if bad["status"] != "certified":
                    raise ValueError(f"{cid}: null tampering needs a "
                                     "certified certificate")
                bad["parameters"][field] = None
                copies.append((bad, f"null parameters.{field}"))
        for i, (bad, what) in enumerate(copies):
            out[f"{cid}~tampered{i}"] = (json.dumps(bad, indent=2) + "\n",
                                         what)
    return out
