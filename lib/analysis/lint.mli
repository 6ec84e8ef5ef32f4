(** The program linter: runs the verifier and the dataflow analyses over
    every method and reports findings as {!Diag.t} values.

    Check codes (the full catalogue is DESIGN.md §12):

    - [TL001] {e error} — bytecode verification violation
    - [TL002] {e warning} — unreachable basic block
    - [TL003] {e warning} — irreducible control flow (retreating edge
      whose target does not dominate its source)
    - [TL004] {e info} — natural loop larger than [max_trace_blocks],
      the trace-length cap
    - [TL101] {e error} — dead store: a local written but never read on
      any subsequent path
    - [TL102] {e warning} — conditional branch that always goes one way
    - [TL103] {e info} — non-empty operand stack at a multi-predecessor
      merge (a value crosses a block boundary; the trace optimizer treats
      that boundary as a barrier)
    - [TL104] {e info} — non-argument local slot never read anywhere
    - [TL105] {e warning} — division whose divisor is provably zero

    If verification fails, only [TL001] diagnostics are produced: the
    dataflow analyses assume verified code. *)

val lint_program :
  ?context:string ->
  max_trace_blocks:int ->
  Bytecode.Program.t ->
  Diag.t list
(** Findings in method order, per-method roughly by pc; callers wanting
    severity order sort with {!Diag.compare}.  [max_trace_blocks] is the
    trace builder's length cap ([Tracegen.Config.max_trace_blocks]),
    passed in because this library sits below the builder. *)
