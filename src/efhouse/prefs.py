"""Agent preference profiles over houses, with ties allowed."""

from __future__ import annotations

from dataclasses import dataclass


class ProfileError(ValueError):
    """Malformed profile or instance file. Carries the line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class PreferenceProfile:
    """Complete weak ranking of every agent over every house.

    ``ranks[i][h]`` is the rank agent ``i + 1`` gives house ``h + 1``; lower
    is better and equal values encode ties. Rank values need not be dense,
    only the ordering they induce matters. Agent and house ids are 1-based
    at the API boundary. Instances are immutable and safe to share across
    threads.
    """

    n_agents: int
    n_houses: int
    ranks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n_agents < 1 or self.n_houses < 1:
            raise ProfileError("profile needs at least one agent and one house")
        if len(self.ranks) != self.n_agents:
            raise ProfileError(
                f"expected {self.n_agents} rank rows, got {len(self.ranks)}"
            )
        for row in self.ranks:
            if len(row) != self.n_houses:
                raise ProfileError(
                    f"expected {self.n_houses} ranks per agent, got {len(row)}"
                )


def parse_profile(text: str) -> PreferenceProfile:
    """Parse an instance file into a profile.

    The format is a header line ``<n> <m>`` followed by one ranking line per
    agent. A ranking lists house ids separated by ``>`` for strict preference
    and ``=`` for ties, e.g. ``1 > 2 = 3 > 4``; whitespace around separators
    is ignored and every house id in 1..m must appear exactly once.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    if not lines or not lines[0]:
        raise ProfileError("missing `n m` header", line=1)
    head = lines[0].split()
    if len(head) != 2:
        raise ProfileError("header must be two integers `n m`", line=1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ProfileError("header must be two integers `n m`", line=1) from None
    if n < 1 or m < 1:
        raise ProfileError("agent and house counts must be positive", line=1)
    # a ranking lists every id, so it cannot be shorter than m characters;
    # checked before any per-house storage is allocated
    if m > len(text):
        raise ProfileError(f"{m} houses cannot be listed in {len(text)} characters", line=1)

    rows: list[tuple[int, ...]] = []
    for line_no, raw in enumerate(lines[1:], start=2):
        if len(rows) < n:
            rows.append(_parse_ranking(raw, line_no, m))
        elif raw:
            raise ProfileError("unexpected extra ranking line", line=line_no)
    if len(rows) < n:
        raise ProfileError(
            f"expected rankings for {n} agents, found only {len(rows)}",
            line=len(lines) + 1,
        )
    return PreferenceProfile(n, m, tuple(rows))


def _parse_ranking(raw: str, line: int, m: int) -> tuple[int, ...]:
    if not raw:
        raise ProfileError("empty ranking line", line=line)
    ranks = [0] * m
    position = 1
    for group in raw.split(">"):
        tokens = group.split("=")
        for token in tokens:
            try:
                house = int(token)  # int() ignores surrounding whitespace
            except ValueError:
                token = token.strip()
                if not token:
                    raise ProfileError("malformed ranking: empty entry", line=line) from None
                raise ProfileError(f"not a house id: {token!r}", line=line) from None
            if not 1 <= house <= m:
                raise ProfileError(f"house {house} out of range 1..{m}", line=line)
            if ranks[house - 1]:
                raise ProfileError(f"house {house} listed twice", line=line)
            # tied houses all take the rank of the group's first slot
            ranks[house - 1] = position
        position += len(tokens)
    if 0 in ranks:
        raise ProfileError(f"house {ranks.index(0) + 1} missing from ranking", line=line)
    return tuple(ranks)


def format_profile(profile: PreferenceProfile) -> str:
    """Render a profile back into the instance file format."""
    lines = [f"{profile.n_agents} {profile.n_houses}"]
    for row in profile.ranks:
        order = sorted(range(1, profile.n_houses + 1), key=lambda h: (row[h - 1], h))
        groups: list[list[int]] = []
        for house in order:
            if groups and row[house - 1] == row[groups[-1][0] - 1]:
                groups[-1].append(house)
            else:
                groups.append([house])
        lines.append(" > ".join(" = ".join(str(h) for h in g) for g in groups))
    return "\n".join(lines) + "\n"
