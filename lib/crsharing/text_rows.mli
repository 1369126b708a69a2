(** The line format instances and schedules share: one row per line,
    tokens separated by spaces and tabs, and a line skipped when it is
    blank or its first non-blank character is ['#'] (blanks as in
    [String.trim]). *)

val parse : string -> (string -> int -> int -> 'a) -> 'a array array
(** [parse text token] reads [text] in one pass and converts each token
    with [token text pos len], in text order, so the first malformed
    token raises first. Tokens are never copied. *)
