"""Seeded param mutations against the one gate both loaders share.

Every block's params are dropped, extended with an unknown key, or set to
a hostile JSON value (None, string, number, bool, list, object).  The
model loader must load the document or raise an SdflowError; and where a
mutated block survives translation as an actor with the same port specs,
the graph loader must give the same problem text (or load too)."""

import json
import random
from pathlib import Path

from model_gen import random_document
from sdflow import (SchemaError, SdflowError, load_model, load_sdfg, normalize,
                    save_sdfg, translate)
from sdflow.kinds import KINDS

MODELS = Path(__file__).parent / "models"
VALUES = (None, "x", "<", 0, 7, -1.5, 10 ** 400, True, False, [], [1, 2], {}, {"a": 1})
DROP = object()
PER_DOCUMENT = 32


def _blocks(b, prefix=""):
    for c in b.get("children", []):
        yield f"{prefix}{c['id']}", c
        yield from _blocks(c, f"{prefix}{c['id']}/")


def _mutation(params, rng):
    """(key, value) to apply to a block's params; DROP deletes the key."""
    how = rng.choice(("drop", "add", "set"))
    if how == "drop" and params:
        return rng.choice(sorted(params)), DROP
    if how == "add" or not params:
        return "zz_unknown", rng.choice(VALUES)
    return rng.choice(sorted(params)), rng.choice(VALUES)


def _mutated(params, key, value):
    out = dict(params)
    if value is DROP:
        out.pop(key, None)
    else:
        out[key] = json.loads(json.dumps(value))
    return out


def _outcome(load):
    """The SdflowError `load` raises, or None; anything else propagates."""
    try:
        load()
    except SdflowError as e:
        return e
    return None


def _same_ports(actor, block):
    """The actor sees the block's specs: same data in-specs and out-specs."""
    ins = [(p["dtype"], p["width"]) for p in actor["ports"]["in"] if not p["event"]]
    outs = [(p["dtype"], p["width"]) for p in actor["ports"]["out"]]
    ports = block.get("ports", {})
    return (ins == [(p["dtype"], p["width"]) for p in ports.get("in", [])]
            and outs == [(p["dtype"], p["width"]) for p in ports.get("out", [])])


def _documents():
    for name in ("climate", "multirate", "multirate_rt", "transmission"):
        yield json.loads((MODELS / f"{name}.json").read_text())
    for seed in range(28):
        yield random_document(seed)


def test_mutated_params_load_or_fail_alike():
    rng = random.Random(2024)
    compared = 0
    for doc in _documents():
        gdoc = save_sdfg(translate(normalize(load_model(doc)))[0])
        actors = {a["id"]: a for a in gdoc["actors"]}
        blocks = [(p, b) for p, b in _blocks(doc["root"]) if b["kind"] in KINDS]
        for _ in range(PER_DOCUMENT):
            path, block = rng.choice(blocks)
            original = block.get("params", {})
            key, value = _mutation(original, rng)
            block["params"] = _mutated(original, key, value)
            try:
                err = _outcome(lambda: load_model(doc))
            finally:
                block["params"] = original
            actor = actors.get(path)
            if actor is None or not _same_ports(actor, block):
                continue
            if err is not None and not (isinstance(err, SchemaError)
                                        and str(err).startswith(f"{path}: ")):
                continue
            # the graph loader gets the params the model loader got: the
            # canonical form may add keys (a NOT LogicalOp's `inputs`)
            kept = actor["state"]["params"]
            actor["state"]["params"] = _mutated(original, key, value)
            try:
                gerr = _outcome(lambda: load_sdfg(gdoc))
            finally:
                actor["state"]["params"] = kept
            want = None if err is None else f"actor {str(err)}"
            assert (None if gerr is None else str(gerr)) == want, (path, key, value)
            compared += 1
    assert compared > 800
