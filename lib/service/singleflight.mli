(** Keyed single-flight execution with a bounded value cache.

    A flight answers "compute the value for this key" so that at most
    one computation per key runs at a time: the first caller for a
    key {e leads} and runs it, every caller that arrives while it runs
    {e joins} and blocks on the leader's write-once cell, and a
    completed value is kept in a bounded FIFO cache that answers later
    callers {e warm} without computing.

    The lead/join/warm decision is made under the cache's lock, so
    "one computation per key in flight" is structural. An owner gives
    all its caches its own lock; the [on_join] hook runs inside the
    critical section, so a counter the owner bumps there under that
    lock is consistent with the decision. Two flights may share one
    cache while keeping separate in-flight tables: they see each
    other's completed values but never join each other's leaders (the
    daemon relies on this to keep inline computations from waiting on
    pool jobs). *)

type 'v cache

val cache : lock:Mutex.t -> int -> 'v cache
(** A FIFO-evicted cache of at most the given number of values,
    guarded by [lock] together with every flight over it; capacity 0
    caches nothing.
    @raise Invalid_argument on a negative capacity. *)

type 'v t

val create : 'v cache -> 'v t
(** A flight with its own, empty in-flight table over the cache. *)

type 'v answer =
  | Warm of 'v  (** served from the cache; nothing ran *)
  | Joined of ('v, string) result  (** shared an in-flight leader's outcome *)
  | Led of ('v, string) result  (** this call ran the computation *)
  | Shed  (** [submit] refused the job; nothing ran *)

val shed_error : string
(** The outcome a joiner gets when its leader was shed. *)

val run :
  'v t ->
  string ->
  ?on_join:(unit -> unit) ->
  ?submit:((unit -> unit) -> bool) ->
  (unit -> ('v, string) result) ->
  'v answer
(** [run flight key compute] answers [key] warm from the cache, by
    joining the key's in-flight leader, or by leading: the leader
    hands a job running [compute] to [submit] (default: run it inline
    and accept) and blocks until the job has finished. The job turns
    an exception from [compute] into [Error (Printexc.to_string e)],
    frees the key, caches an [Ok] value (an [Error] is never cached),
    then wakes every joiner. It is idempotent, so a pool may re-run it.

    When [submit] refuses, the key is freed, a joiner that raced in
    receives [Error shed_error], and the leader gets [Shed].

    [on_join] runs under the lock whenever this call joins. *)
