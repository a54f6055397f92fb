(** Append-only resume journal for multi-point runs.

    A journal records each completed unit of a long batch — one grid
    cell of a grid, sweep or suite run, one task set of a
    schedulability campaign — as a self-checksummed record, so an interrupted run
    can resume exactly where it stopped and reproduce the
    uninterrupted output bit for bit.

    File format: a header record carrying the {e run key} (the digest
    of everything that shapes the output — inputs, grid, flags, code
    version), then one record per completed unit. Every record is
    [length | MD5(payload) | payload].

    Torn-write argument: records are appended with a single buffered
    write and fsynced. A crash (including [kill -9]) mid-append leaves
    at most one trailing partial record; {!load}/{!resume} replay
    records from the start and stop at the first one that is short or
    fails its digest, dropping it and anything after it. A dropped
    unit is merely recomputed — a torn journal can never resurrect a
    wrong result. {!resume} also truncates the file back to the valid
    prefix, so subsequent appends start on a clean record boundary.

    A journal whose header run key differs from the resuming run's is
    ignored wholesale (the parameters changed; its units describe a
    different output). *)

type writer

val create : ?chaos:Chaos.Injector.t -> path:string -> run_key:string -> unit -> writer
(** Start a fresh journal (truncating any previous file at [path]).
    [chaos] arms the [journal.append] injection site on this writer:
    an injected short write tears the record on disk exactly as
    ENOSPC-mid-append would and raises [Unix_error (ENOSPC, _, _)];
    recovery is the read side's torn-tail drop, as for a crash. *)

val resume : ?chaos:Chaos.Injector.t -> path:string -> run_key:string -> unit -> writer * string list
(** Reopen for append, returning the valid completed-unit payloads in
    append order. Missing file or mismatched run key: behaves as
    {!create} and returns no units. *)

val load : path:string -> run_key:string -> string list
(** Read-only {!resume}: the valid payloads, without touching the
    file. *)

val append : writer -> string -> unit
(** Durably append one completed-unit record (fsynced before
    returning). *)

val close : writer -> unit
