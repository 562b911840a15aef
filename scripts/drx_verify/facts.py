"""Fact IR of drx_verify.

The source frontend lowers each file to a small vocabulary of facts;
the analysis passes never look at C++ again after this point.

The unit of analysis is the *function body*: an ordered list of Events
(lock acquisitions/releases, calls, error-value discards) plus a
summary of the function's signature. Lambdas become synthetic functions
(name `<parent>::<lambda@line>`): their bodies do NOT execute at the
point of definition, so their events never inherit the parent's held
set — instead `passed_to` records the call the lambda was handed to,
and the passes decide the entry context (e.g. a lambda registered via
`register_scrape_provider` runs under the provider mutex; a lambda
submitted to the AsyncIoPool runs on a worker with nothing held).
"""

from __future__ import annotations

from dataclasses import dataclass, field


# Event kinds.
ACQUIRE = "acquire"          # data: lock expr text; arg2: scope depth
RELEASE = "release"          # data: lock expr text (explicit .unlock())
REACQUIRE = "reacquire"      # data: lock expr text (explicit .lock())
CALL = "call"                # data: callee text (e.g. "file_->read_chunk");
                             # args: argument text through the line on
                             # which the first argument ends
DISCARD = "discard"          # data: callee text of a (void)-cast call
VALUE_CALL = "value_call"    # data: object text of a .value() call
OK_CHECK = "ok_check"        # data: object text of an is_ok()/bool check
RETURN_INT = "return_int"    # data: the returned literal (e.g. "-1")


@dataclass
class Event:
    kind: str
    data: str
    line: int
    depth: int = 0  # brace depth relative to function body start
    args: str = ""  # CALL only: argument text, whitespace-collapsed


@dataclass
class Function:
    name: str                # qualified: "drx::core::ChunkCache::pin"
    file: str                # repo-relative path
    line: int
    return_type: str = ""
    events: list[Event] = field(default_factory=list)
    # Lock exprs from DRX_REQUIRES(...) / DRX_ACQUIRE(...) annotations on
    # the declaration: the caller-side contract.
    requires: list[str] = field(default_factory=list)
    acquires: list[str] = field(default_factory=list)
    # For synthetic lambda functions: the name of the call the lambda
    # was passed to ("" = not an argument / not a lambda).
    passed_to: str = ""
    is_lambda: bool = False


@dataclass
class Include:
    file: str      # repo-relative including file
    target: str    # the quoted include path, e.g. "core/coords.hpp"
    line: int


@dataclass
class SyncUse:
    """A raw std:: synchronization primitive named anywhere in a file."""
    file: str
    line: int
    primitive: str  # e.g. "std::mutex"


@dataclass
class MutexMember:
    """A util::Mutex / util::SharedMutex declaration (member or static)."""
    file: str
    line: int
    name: str
    annotated: bool  # some DRX_GUARDED_BY/DRX_REQUIRES in the file names it


@dataclass
class TUFacts:
    """Facts extracted from one source file (or merged over a tree)."""
    functions: list[Function] = field(default_factory=list)
    includes: list[Include] = field(default_factory=list)
    sync_uses: list[SyncUse] = field(default_factory=list)
    mutex_members: list[MutexMember] = field(default_factory=list)

    def merge(self, other: "TUFacts") -> None:
        self.functions.extend(other.functions)
        self.includes.extend(other.includes)
        self.sync_uses.extend(other.sync_uses)
        self.mutex_members.extend(other.mutex_members)

    def files(self) -> set[str]:
        return ({fn.file for fn in self.functions}
                | {inc.file for inc in self.includes}
                | {use.file for use in self.sync_uses}
                | {mm.file for mm in self.mutex_members})


def callee_base(callee: str) -> str:
    """`file_->read_chunk` -> `read_chunk`; template args are dropped
    (`std::make_unique<std::byte[]>` -> `make_unique`)."""
    bare = callee.split("<", 1)[0]
    return bare.split("->")[-1].split(".")[-1].split("::")[-1]

