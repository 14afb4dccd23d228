"""Versioned JSON instance files.

An instance document carries a matroid section plus either explicit value
distributions or a Bernoulli (p, t) pair; the Bernoulli form also keeps the
declared vectors around so verification can audit them as stated.
"""

import json
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution
from .matroids import GraphicMatroid, PartitionMatroid, UniformMatroid
from .reduction import ProphetInstance

FORMAT_VERSION = 1


@dataclass(frozen=True)
class LoadedInstance:
    instance: ProphetInstance
    declared_p: np.ndarray | None = None
    declared_t: np.ndarray | None = None

    @property
    def is_bernoulli(self):
        return self.declared_p is not None


def _matroid_to_dict(m):
    if isinstance(m, GraphicMatroid):
        return {"type": "graphic", "num_vertices": m.num_vertices,
                "edges": [[int(u), int(v)] for u, v in m.edges]}
    if isinstance(m, UniformMatroid):
        return {"type": "uniform", "n": m.n, "k": m.k}
    if isinstance(m, PartitionMatroid):
        return {"type": "partition",
                "blocks": [list(b) for b in m.blocks],
                "capacities": list(m.capacities)}
    raise ValueError(f"cannot serialize matroid type {type(m).__name__}")


def _matroid_from_dict(d):
    if not isinstance(d, dict):
        raise ValueError("matroid section must be a JSON object")
    kind = d.get("type")
    try:
        if kind == "graphic":
            return GraphicMatroid(d["num_vertices"], d["edges"])
        if kind == "uniform":
            return UniformMatroid(d["n"], d["k"])
        if kind == "partition":
            return PartitionMatroid(d["blocks"], d["capacities"])
    except ValueError as exc:
        # the constructors name the offending field; say whose it is
        raise ValueError(f"matroid {exc}") from exc
    raise ValueError(f"unknown matroid type {kind!r}")


def instance_to_dict(inst):
    return {
        "version": FORMAT_VERSION,
        "matroid": _matroid_to_dict(inst.matroid),
        "distributions": [
            {"support": d.values.tolist(), "probs": d.probs.tolist()}
            for d in inst.dists
        ],
    }


def bernoulli_to_dict(bern):
    return {
        "version": FORMAT_VERSION,
        "matroid": _matroid_to_dict(bern.matroid),
        "bernoulli": {"p": bern.p.tolist(), "t": bern.t.tolist()},
    }


def save_instance(path, inst_or_dict):
    doc = inst_or_dict if isinstance(inst_or_dict, dict) \
        else instance_to_dict(inst_or_dict)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


@contextmanager
def _field(name):
    """Report a missing key or a value of the wrong type inside field
    `name` as a ValueError naming that field."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{name} lacks the field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ValueError(f"{name} is malformed: {exc}") from exc


def parse_instance(doc):
    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version!r}")
    if "matroid" not in doc:
        raise ValueError("instance document lacks a matroid section")
    with _field("matroid"):
        matroid = _matroid_from_dict(doc["matroid"])
    has_dists = "distributions" in doc
    has_bern = "bernoulli" in doc
    if has_dists == has_bern:
        raise ValueError(
            "need exactly one of 'distributions' or 'bernoulli'")
    if has_dists:
        entries = doc["distributions"]
        if not isinstance(entries, list):
            raise ValueError("distributions must be a JSON array")
        if len(entries) != matroid.n:
            raise ValueError(
                f"{len(entries)} distributions for {matroid.n} elements")
        dists = []
        for i, e in enumerate(entries):
            with _field(f"distributions[{i}]"):
                dists.append(DiscreteDistribution(e["support"], e["probs"]))
        return LoadedInstance(ProphetInstance(matroid, dists))
    with _field("bernoulli"):
        p = np.asarray(doc["bernoulli"]["p"], dtype=float)
        t = np.asarray(doc["bernoulli"]["t"], dtype=float)
    if p.shape != (matroid.n,) or t.shape != (matroid.n,):
        raise ValueError("bernoulli vectors do not match the ground set")
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("bernoulli probabilities must lie in [0, 1]")
    if np.any(t < 0) or not np.all(np.isfinite(t)):
        raise ValueError("bernoulli values must be finite and nonnegative")
    dists = tuple(DiscreteDistribution.two_point(pi, ti)
                  for pi, ti in zip(p, t))
    return LoadedInstance(ProphetInstance(matroid, dists), p, t)


def load_instance(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON: {exc}") from exc
    return parse_instance(doc)
