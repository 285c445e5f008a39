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
from array import array
from dataclasses import astuple, dataclass, fields
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
from .zeek import (
    NUMERIC_FEATURES,
    ConnRecord,
    FlowTable,
    _canonical_ip,
    _canonical_service,
    _int_column,
)

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
        if not (math.isfinite(self.flows_per_min) and self.flows_per_min > 0):
            raise ValueError("flows_per_min must be finite and positive")
        if not (math.isfinite(self.mean_duration) and self.mean_duration >= 0):
            raise ValueError("mean_duration must be finite and non-negative")


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


def generate(roles: Sequence[RoleSpec], duration: float, seed: int) -> FlowTable:
    """Produce a deterministic flow table over [0, duration), sorted by
    time, then source, destination and service (stably).

    Needs at least two roles; a role with zero members is an error. Each
    member IP and service is canonicalized at its first flow, source before
    destination before service, so a spec that a :class:`ConnRecord` would
    refuse raises that record's :class:`ParseError`; a role that no flow
    touches is never checked. No record is built per flow.
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
    exponential, integers, lognormal = rng.exponential, rng.integers, rng.lognormal
    ips: dict[str, int] = {}  # canonical IP -> code
    tokens: dict[str, int] = {}  # canonical token -> code
    ip_codes: dict[str, int] = {}  # member IP as the role writes it -> code
    token_codes: dict[str, int] = {}  # service as the profile writes it -> code

    def ip_code(name: str, ip: str) -> int:
        if ip not in ip_codes:
            ip_codes[ip] = ips.setdefault(_canonical_ip(name, ip), len(ips))
        return ip_codes[ip]

    def token_code(service: str) -> int:
        if service not in token_codes:
            token = _canonical_service(service)
            token_codes[service] = tokens.setdefault(token, len(tokens))
        return token_codes[service]

    # Per flow, in draw order: destination, the four log-normal counts,
    # source port, duration; per run of one source and profile: its source,
    # service and destination port codes and its length.
    ts_col = array("d")
    destinations: list[str] = []
    counts = array("d")
    source_ports = array("q")
    durations = array("d")
    runs: list[tuple[int, int, int, int]] = []
    for role in roles:
        params = [
            [(math.log(mean) - 0.5 * sigma * sigma, sigma) for mean, sigma in (
                profile.request_bytes, profile.response_bytes,
                profile.request_packets, profile.response_packets,
            )]
            for profile in role.profiles
        ]
        for source in members[role.name]:
            for profile, lognormals in zip(role.profiles, params):
                peers = members.get(profile.peer_role)
                if not peers:
                    raise ValueError(f"unknown peer role {profile.peer_role!r}")
                (mu0, s0), (mu1, s1), (mu2, s2), (mu3, s3) = lognormals
                n_peers = len(peers)
                scale = 60.0 / profile.flows_per_min
                mean_duration = profile.mean_duration
                first = len(ts_col)
                ts = exponential(scale)
                while ts < duration:
                    ts_col.append(ts)
                    destinations.append(peers[integers(0, n_peers)])
                    counts.append(lognormal(mu0, s0))
                    counts.append(lognormal(mu1, s1))
                    counts.append(lognormal(mu2, s2))
                    counts.append(lognormal(mu3, s3))
                    source_ports.append(integers(1024, 65536))
                    durations.append(exponential(mean_duration))
                    ts += exponential(scale)
                if len(ts_col) > first:
                    src = ip_code("source_ip", source)
                    ip_code("destination_ip", destinations[first])
                    token = token_code(profile.service)
                    for peer in dict.fromkeys(destinations[first:]):
                        ip_code("destination_ip", peer)
                    port = _WELL_KNOWN_PORTS.get(profile.service, 80)
                    runs.append((src, token, port, len(ts_col) - first))

    src, token, port, lengths = np.array(runs, dtype=np.int64).reshape(-1, 4).T
    columns = {
        "ts": np.array(ts_col, dtype=np.float64),
        "source_ip": np.repeat(src, lengths).astype(np.int32),
        "destination_ip": np.fromiter(
            map(ip_codes.__getitem__, destinations), np.int32, len(destinations)
        ),
        "source_port": np.array(source_ports, dtype=np.int32),
        "destination_port": np.repeat(port, lengths).astype(np.int32),
        "protocol_service": np.repeat(token, lengths).astype(np.int32),
        "duration": np.array(durations, dtype=np.float64),
        **_counters(counts),
    }
    table = FlowTable(ips, tokens, columns)
    _check_numbers(table)
    order = np.lexsort((
        _ranks(table.tokens)[table.column("protocol_service")],
        _ranks(table.ips)[table.column("destination_ip")],
        _ranks(table.ips)[table.column("source_ip")],
        table.column("ts"),
    ))
    return table[order]


def _counters(draws: Sequence[float]) -> dict[str, np.ndarray]:
    """The counter columns of the flows' log-normal draws, four per flow
    (request and response bytes, then packets): each rounded half to even
    as ``round`` does, packets at least one, IP bytes adding 28 per packet."""
    drawn = np.rint(np.array(draws, dtype=np.float64).reshape(-1, 4))
    np.maximum(drawn[:, 2:], 1.0, out=drawn[:, 2:])
    if drawn.max(initial=0.0) < 2**58:  # 28 * packets + bytes stays in int64
        whole = drawn.astype(np.int64)
    else:
        whole = np.frompyfunc(int, 1, 1)(drawn)
    req_b, resp_b, req_p, resp_p = whole.T
    columns = {
        "request_bytes": req_b,
        "response_bytes": resp_b,
        "bytes": req_b + resp_b,
        "request_packets": req_p,
        "response_packets": resp_p,
        "request_ip_bytes": req_b + 28 * req_p,
        "response_ip_bytes": resp_b + 28 * resp_p,
    }
    return {attr: _int_column(c.tolist()) if c.dtype == object else c for attr, c in columns.items()}


def _check_numbers(table: FlowTable) -> None:
    """Refuse the first row whose numbers a :class:`ConnRecord` would
    refuse, with that record's error; the columns are checked whole."""
    column = table.column
    bad = ~np.isfinite(column("ts")) | ~np.isfinite(column("duration"))
    for attr in ("source_port", "destination_port"):
        bad |= column(attr) > 65535
    for attr in ("source_port", "destination_port", *NUMERIC_FEATURES):
        bad |= column(attr) < 0
    if bad.any():
        ConnRecord(*astuple(table[int(bad.argmax())]))


def _ranks(strings: Sequence[str]) -> np.ndarray:
    """Each string's position in the sorted order of ``strings``."""
    order = sorted(range(len(strings)), key=strings.__getitem__)
    ranks = np.empty(len(strings), dtype=np.int64)
    ranks[order] = np.arange(len(strings))
    return ranks


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
# One row of _ZEEK_FIELDS: floats in repr so reparsing restores them exactly,
# the uid from the row number, conn_state always SF.
_ZEEK_ROW = "%r\tC%012d\t%s\t%d\t%s\t%d\t%s\t%s\t%r\t%d\t%d\tSF\t%d\t%d\t%d\t%d\n"
_BLOCK_ROWS = 2048  # rows converted to text per write


def write_zeek_tsv(
    records: Sequence[ConnRecord], fp: IO[str], transports: dict[str, str] | None = None
) -> int:
    """Emit records as a Zeek-style conn.log TSV so the whole ingest path
    gets exercised end to end. Returns the row count.

    A :class:`FlowTable` is written from its columns, a block of rows at a
    time; other records are converted to one first."""
    table = FlowTable.from_records(records)
    transports = transports or {}
    protos = [transports.get(token, "tcp") for token in table.tokens]
    fp.write("#separator \\x09\n")
    fp.write("#set_separator\t,\n")
    fp.write("#empty_field\t(empty)\n")
    fp.write("#unset_field\t-\n")
    fp.write("#path\tconn\n")
    fp.write("#fields\t" + "\t".join(_ZEEK_FIELDS) + "\n")
    ips, tokens = table.ips, table.tokens
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start : start + _BLOCK_ROWS]
        c = {f.name: block.column(f.name).tolist() for f in fields(ConnRecord)}
        rows = zip(
            c["ts"],
            range(start, start + len(block)),
            map(ips.__getitem__, c["source_ip"]),
            c["source_port"],
            map(ips.__getitem__, c["destination_ip"]),
            c["destination_port"],
            map(protos.__getitem__, c["protocol_service"]),
            map(tokens.__getitem__, c["protocol_service"]),
            c["duration"],
            c["request_bytes"],
            c["response_bytes"],
            c["request_packets"],
            c["request_ip_bytes"],
            c["response_packets"],
            c["response_ip_bytes"],
        )
        fp.write("".join(_ZEEK_ROW % row for row in rows))
    return len(table)


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
    records: FlowTable  # every generated flow, time-sorted
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
    cut = int(np.searchsorted(records.column("ts"), split_ts))  # first row at split_ts
    train_records, test_records = records[:cut], records[cut:]
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

    filtered = filter_holdout(train_records, holdout_ips)
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
