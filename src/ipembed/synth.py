"""Role-based synthetic traffic and the inductive holdout experiment.

Hosts are grouped into roles; each role's members emit flows to peer roles
following per-protocol profiles (exponential inter-arrival times,
log-normal byte and packet counts). The experiment harness splits the
stream in time, removes holdout IPs from the training window only, fits
the vocab and scaler on the filtered training data, trains nothing itself
but hands back everything needed to train and then measure whether an
unseen IP embeds close to its own role and away from a contrast role.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .graphs import (
    FeatureScaler,
    IntervalGraph,
    ProtocolVocab,
    build_interval_graphs,
    check_interval_len,
    fit_protocol_vocab,
    fit_scaler,
    normalize,
)
from .serving import cosine_rows, infer_embeddings
from .training import ModelBundle, filter_holdout
from .zeek import ConnRecord, FlowTable

__all__ = [
    "MAX_ROLE_MEMBERS",
    "FlowProfile",
    "RoleSpec",
    "ExperimentData",
    "InductiveEvalResult",
    "generate",
    "write_zeek_tsv",
    "default_roles",
    "make_experiment",
    "eval_inductive",
]


@dataclass(frozen=True)
class FlowProfile:
    """Outbound traffic of one protocol toward one peer role.

    Byte and packet counts are log-normal; flow durations are exponential;
    inter-arrival times are exponential at ``flows_per_min``. IP-layer byte
    counters add a fixed 28-byte per-packet overhead.
    """

    service: str
    peer_role: str
    flows_per_min: float
    request_bytes: tuple[float, float]  # (arithmetic mean, log-space sigma)
    response_bytes: tuple[float, float]
    request_packets: tuple[float, float]
    response_packets: tuple[float, float]
    mean_duration: float

    def __post_init__(self):
        if self.flows_per_min <= 0:
            raise ValueError("flows_per_min must be positive")
        if self.mean_duration < 0:
            raise ValueError("mean_duration must be non-negative")


MAX_ROLE_MEMBERS = 255  # host numbers 1..255 under one three-octet prefix


@dataclass(frozen=True)
class RoleSpec:
    """A named group of hosts with shared traffic behavior.

    Members are numbered under a three-octet prefix, so a role holds at most
    :data:`MAX_ROLE_MEMBERS` hosts.
    """

    name: str
    members: int
    ip_prefix: str  # e.g. "10.0.1." -> members 10.0.1.1, 10.0.1.2, ...
    profiles: tuple[FlowProfile, ...] = ()

    def __post_init__(self):
        if self.members > MAX_ROLE_MEMBERS:
            raise ValueError(
                f"role {self.name!r} has {self.members} members; "
                f"at most {MAX_ROLE_MEMBERS} fit under {self.ip_prefix!r}"
            )

    def ips(self) -> list[str]:
        return [f"{self.ip_prefix}{i + 1}" for i in range(self.members)]


def _lognormal(rng: np.random.Generator, mean: float, sigma: float) -> int:
    """Integer draw from a log-normal with the requested arithmetic mean."""
    mu = math.log(mean) - 0.5 * sigma * sigma
    return max(0, int(round(rng.lognormal(mu, sigma))))


def generate(
    roles: Sequence[RoleSpec], duration: float, seed: int
) -> list[ConnRecord]:
    """Produce a deterministic, time-sorted flow stream over [0, duration).

    Needs at least two roles; a role with zero members is an error.
    """
    if len(roles) < 2:
        raise ValueError("need at least 2 roles")
    names = [r.name for r in roles]
    if len(set(names)) != len(names):
        raise ValueError("role names must be unique")
    members = {r.name: r.ips() for r in roles}
    for role in roles:
        if role.members < 1:
            raise ValueError(f"role {role.name!r} has no members")
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be finite and positive, got {duration}")

    rng = np.random.default_rng(seed)
    records: list[ConnRecord] = []
    for role in roles:
        for source in members[role.name]:
            for profile in role.profiles:
                peers = members.get(profile.peer_role)
                if not peers:
                    raise ValueError(f"unknown peer role {profile.peer_role!r}")
                scale = 60.0 / profile.flows_per_min
                ts = rng.exponential(scale)
                while ts < duration:
                    destination = peers[int(rng.integers(0, len(peers)))]
                    req_b = _lognormal(rng, *profile.request_bytes)
                    resp_b = _lognormal(rng, *profile.response_bytes)
                    req_p = max(1, _lognormal(rng, *profile.request_packets))
                    resp_p = max(1, _lognormal(rng, *profile.response_packets))
                    records.append(
                        ConnRecord(
                            ts=float(ts),
                            source_ip=source,
                            destination_ip=destination,
                            source_port=int(rng.integers(1024, 65536)),
                            destination_port=_WELL_KNOWN_PORTS.get(
                                profile.service, 80
                            ),
                            protocol_service=profile.service,
                            duration=float(rng.exponential(profile.mean_duration)),
                            request_bytes=req_b,
                            response_bytes=resp_b,
                            bytes=req_b + resp_b,
                            request_packets=req_p,
                            response_packets=resp_p,
                            request_ip_bytes=req_b + 28 * req_p,
                            response_ip_bytes=resp_b + 28 * resp_p,
                        )
                    )
                    ts += rng.exponential(scale)
    records.sort(
        key=lambda r: (r.ts, r.source_ip, r.destination_ip, r.protocol_service)
    )
    return records


_WELL_KNOWN_PORTS = {"dns": 53, "http": 80, "ssl": 443, "ntp": 123, "ssh": 22}

_ZEEK_FIELDS = (
    "ts",
    "uid",
    "id.orig_h",
    "id.orig_p",
    "id.resp_h",
    "id.resp_p",
    "proto",
    "service",
    "duration",
    "orig_bytes",
    "resp_bytes",
    "conn_state",
    "orig_pkts",
    "orig_ip_bytes",
    "resp_pkts",
    "resp_ip_bytes",
)


def write_zeek_tsv(
    records: Sequence[ConnRecord], fp: IO[str], transports: dict[str, str] | None = None
) -> int:
    """Emit records as a Zeek-style conn.log TSV so the whole ingest path
    gets exercised end to end. Returns the row count."""
    transports = transports or {}
    fp.write("#separator \\x09\n")
    fp.write("#set_separator\t,\n")
    fp.write("#empty_field\t(empty)\n")
    fp.write("#unset_field\t-\n")
    fp.write("#path\tconn\n")
    fp.write("#fields\t" + "\t".join(_ZEEK_FIELDS) + "\n")
    for i, r in enumerate(records):
        proto = transports.get(r.protocol_service, "tcp")
        cells = (
            repr(r.ts),
            f"C{i:012d}",
            r.source_ip,
            str(r.source_port),
            r.destination_ip,
            str(r.destination_port),
            proto,
            r.protocol_service,
            repr(r.duration),
            str(r.request_bytes),
            str(r.response_bytes),
            "SF",
            str(r.request_packets),
            str(r.request_ip_bytes),
            str(r.response_packets),
            str(r.response_ip_bytes),
        )
        fp.write("\t".join(cells) + "\n")
    return len(records)


def default_roles(
    clients: int = 32, dns_servers: int = 4, web_servers: int = 6
) -> list[RoleSpec]:
    """Desk-scale network: clients query a DNS server pool and browse a web
    server pool. Roles separate on protocol mix and traffic volume."""
    return [
        RoleSpec(
            name="client",
            members=clients,
            ip_prefix="10.0.0.",
            profiles=(
                FlowProfile(
                    service="dns",
                    peer_role="dns_server",
                    flows_per_min=2.5,
                    request_bytes=(120.0, 0.4),
                    response_bytes=(480.0, 0.4),
                    request_packets=(2.0, 0.3),
                    response_packets=(2.0, 0.3),
                    mean_duration=0.05,
                ),
                FlowProfile(
                    service="http",
                    peer_role="web_server",
                    flows_per_min=1.2,
                    request_bytes=(900.0, 0.6),
                    response_bytes=(24000.0, 0.8),
                    request_packets=(10.0, 0.4),
                    response_packets=(20.0, 0.5),
                    mean_duration=1.5,
                ),
                FlowProfile(
                    service="ssl",
                    peer_role="web_server",
                    flows_per_min=0.8,
                    request_bytes=(1500.0, 0.6),
                    response_bytes=(60000.0, 0.9),
                    request_packets=(14.0, 0.4),
                    response_packets=(48.0, 0.5),
                    mean_duration=4.0,
                ),
            ),
        ),
        RoleSpec(name="dns_server", members=dns_servers, ip_prefix="10.0.1."),
        RoleSpec(name="web_server", members=web_servers, ip_prefix="10.0.2."),
    ]


DEFAULT_TRANSPORTS = {"dns": "udp", "http": "tcp", "ssl": "tcp"}


@dataclass
class ExperimentData:
    """A ready-to-train inductive holdout experiment."""

    train_graphs: list[IntervalGraph]  # normalized, holdout removed
    test_graphs: list[IntervalGraph]  # normalized, holdout present
    holdout_ips: tuple[str, ...]
    in_role_ips: tuple[str, ...]  # holdout's role, minus the holdout
    out_role_ips: tuple[str, ...]  # contrast role
    vocab: ProtocolVocab
    scaler: FeatureScaler
    records: list[ConnRecord]
    split_ts: float


def make_experiment(
    roles: Sequence[RoleSpec] | None = None,
    holdout_fraction: float = 0.25,
    interval_len: float = 600.0,
    seed: int = 0,
    duration: float = 7200.0,
    train_fraction: float = 0.7,
    holdout_role: str = "dns_server",
    contrast_role: str = "web_server",
) -> ExperimentData:
    """Generate traffic, split in time, and build normalized graph sets.

    The first ``train_fraction`` of whole intervals becomes the training
    window; holdout IPs (``floor(members * holdout_fraction)``, at least
    one) are filtered out of the training records only. Vocab and scaler
    are fitted on the filtered training data and reused for the test
    graphs.
    """
    roles = list(roles) if roles is not None else default_roles()
    if not 0 < holdout_fraction < 1:
        raise ValueError("holdout_fraction must lie in (0, 1)")
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must lie in (0, 1)")
    by_name = {r.name: r for r in roles}
    if holdout_role not in by_name or contrast_role not in by_name:
        raise ValueError("holdout_role and contrast_role must name roles")
    check_interval_len(interval_len)

    records = generate(roles, duration, seed)
    n_intervals = max(1, int(math.floor(duration / interval_len)))
    split_idx = min(n_intervals - 1, max(1, int(math.floor(n_intervals * train_fraction))))
    split_ts = split_idx * interval_len
    train_records = [r for r in records if r.ts < split_ts]
    test_records = [r for r in records if r.ts >= split_ts]
    if not train_records or not test_records:
        raise ValueError("time split produced an empty window")

    pool = by_name[holdout_role].ips()
    n_hold = max(1, int(math.floor(len(pool) * holdout_fraction)))
    if n_hold >= len(pool):
        raise ValueError("holdout would exhaust the role")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pool), size=n_hold, replace=False)
    holdout_ips = tuple(pool[i] for i in sorted(picks))
    in_role_ips = tuple(ip for ip in pool if ip not in holdout_ips)
    out_role_ips = tuple(by_name[contrast_role].ips())

    filtered = FlowTable.from_records(filter_holdout(train_records, holdout_ips))
    vocab = fit_protocol_vocab(filtered)
    train_graphs = build_interval_graphs(filtered, interval_len, vocab, origin=0.0)
    scaler = fit_scaler(train_graphs)
    train_graphs = [normalize(g, scaler) for g in train_graphs]
    test_graphs = [
        normalize(g, scaler)
        for g in build_interval_graphs(test_records, interval_len, vocab, origin=0.0)
    ]

    return ExperimentData(
        train_graphs=train_graphs,
        test_graphs=test_graphs,
        holdout_ips=holdout_ips,
        in_role_ips=in_role_ips,
        out_role_ips=out_role_ips,
        vocab=vocab,
        scaler=scaler,
        records=records,
        split_ts=split_ts,
    )


@dataclass
class InductiveEvalResult:
    """Similarity of held-out IPs to their role versus a contrast role."""

    per_graph: list[tuple[float, float, float, float]]  # interval, in, out, margin
    in_role_mean: float
    out_role_mean: float
    margin_mean: float
    n_graphs: int


def eval_inductive(
    bundle: ModelBundle,
    train_graphs: Sequence[IntervalGraph],
    test_graphs: Sequence[IntervalGraph],
    holdout_ips: Sequence[str],
    in_role_ips: Sequence[str],
    out_role_ips: Sequence[str],
) -> InductiveEvalResult:
    """Score the inductive transfer of held-out IPs.

    Hard-errors if any holdout IP leaked into the training graphs. For each
    test graph where a holdout IP appears alongside both reference sets,
    records the mean cosine to in-role IPs, to out-role IPs, and the margin.
    """
    holdout = set(holdout_ips)
    for i, graph in enumerate(train_graphs):
        leaked = holdout.intersection(graph.nodes)
        if leaked:
            raise ValueError(
                f"holdout IPs {sorted(leaked)} found in training graph {i}; "
                "experiment is invalid"
            )
    per_graph = []
    for graph in test_graphs:
        rows = {ip: i for i, ip in enumerate(graph.nodes)}
        held = sorted(holdout.intersection(rows))
        in_rows = [rows[ip] for ip in in_role_ips if ip in rows]
        out_rows = [rows[ip] for ip in out_role_ips if ip in rows]
        if not held or not in_rows or not out_rows:
            continue
        vectors = infer_embeddings(bundle, graph).vectors
        scores = np.array([cosine_rows(vectors[rows[ip]], vectors) for ip in held])
        in_mean = float(scores[:, in_rows].mean())
        out_mean = float(scores[:, out_rows].mean())
        per_graph.append((graph.start, in_mean, out_mean, in_mean - out_mean))
    if not per_graph:
        raise ValueError("no test graph contained a holdout IP with both roles")
    arr = np.array([(a, b, c) for _, a, b, c in per_graph])
    return InductiveEvalResult(
        per_graph=per_graph,
        in_role_mean=float(arr[:, 0].mean()),
        out_role_mean=float(arr[:, 1].mean()),
        margin_mean=float(arr[:, 2].mean()),
        n_graphs=len(per_graph),
    )
