"""Run manifests, seed derivation, model checkpoints, and deterministic files.

Every file a command writes embeds the hash of the run manifest, so a
result can always be traced back to the exact inputs and seeds that
produced it.  Nothing here records wall-clock time: rerunning a command
with an identical manifest must reproduce its outputs byte for byte.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .features import ExtractionParams
from .network import NetworkConfig, TrainingConfig

CHECKPOINT_FORMAT = "crowdsim-checkpoint-v1"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


@dataclass
class RunManifest:
    """Everything that determines a command's outputs."""

    command: str
    scene: str
    data: tuple[str, ...]
    seed: int
    out: str
    model: Optional[str] = None
    extraction: Optional[dict] = None
    network: Optional[dict] = None
    training: Optional[dict] = None
    options: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def hash(self) -> str:
        return hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()

    def save(self, path) -> None:
        write_json(path, self.to_dict(), self.hash())


def _seed_sequence(master_seed: int, name: str) -> np.random.SeedSequence:
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.SeedSequence([int(master_seed), tag])


def derive_seed(master_seed: int, name: str) -> int:
    """Stable named sub-seed of a master seed."""
    return int(_seed_sequence(master_seed, name).generate_state(1, dtype=np.uint64)[0] % (2**32))


def substream(master_seed: int, name: str) -> np.random.Generator:
    """Independent generator for one named use of the manifest seed."""
    return np.random.default_rng(_seed_sequence(master_seed, name))


def _encode_tensor(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def _decode_tensor(doc: dict) -> np.ndarray:
    raw = base64.b64decode(doc["data"])
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return arr.reshape([int(s) for s in doc["shape"]])


@dataclass(frozen=True)
class Checkpoint:
    network: NetworkConfig
    extraction: ExtractionParams
    training: Optional[TrainingConfig]
    state: dict[str, np.ndarray]
    manifest_hash: str


def save_checkpoint(path, state: dict[str, np.ndarray], network: NetworkConfig,
                    extraction: ExtractionParams, manifest_hash: str,
                    training: Optional[TrainingConfig] = None) -> None:
    write_json(path, {"format": CHECKPOINT_FORMAT,
                      "network": network.to_dict(),
                      "extraction": extraction.to_dict(),
                      "training": training.to_dict() if training is not None else None,
                      "tensors": {name: _encode_tensor(arr) for name, arr in state.items()}},
               manifest_hash)


def _section(path, doc: dict, name: str, cls):
    """cls from the checkpoint section doc[name], whose keys must be cls's fields."""
    keys, known = set(doc[name]), {f.name for f in fields(cls)}
    if keys != known:
        raise ValueError(f"{path}: checkpoint section {name!r} has missing keys "
                         f"{sorted(known - keys)} and unknown keys {sorted(keys - known)}")
    return cls(**doc[name])


def load_checkpoint(path) -> Checkpoint:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    network = _section(path, doc, "network", NetworkConfig)
    extraction = _section(path, doc, "extraction", ExtractionParams)
    if network.input_dim != extraction.feature_dim:
        raise ValueError(f"{path}: network input_dim {network.input_dim} does not "
                         f"match the stored extraction feature_dim {extraction.feature_dim}")
    training = (_section(path, doc, "training", TrainingConfig)
                if doc.get("training") is not None else None)
    state = {name: _decode_tensor(t) for name, t in doc["tensors"].items()}
    return Checkpoint(network=network, extraction=extraction, training=training,
                      state=state, manifest_hash=str(doc["manifest_hash"]))


# Cell types whose str() is their CSV text: str(float) is the shortest
# round-trip repr.  bool, numpy scalars and the rest go through _fmt.
_PLAIN_TYPES = frozenset({str, int, float, type(None)})


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header: list[str], rows, manifest_hash: str,
              trailer: Optional[list[str]] = None) -> None:
    """CSV with the manifest hash embedded as a leading comment line."""
    lines = [f"# manifest_hash={manifest_hash}", ",".join(header)]
    for row in rows:
        plain = _PLAIN_TYPES.issuperset(map(type, row))
        lines.append(",".join(map(str if plain else _fmt, row)))
    for extra in trailer or []:
        lines.append(f"# {extra}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path}: no header row")
    return header, rows


def write_json(path, doc: dict, manifest_hash: str) -> None:
    doc = dict(doc)
    doc["manifest_hash"] = manifest_hash
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=1))
        fh.write("\n")
