(* The logitlint rule catalogue. Every rule here is motivated by a bug
   class this repository has actually hit; see DESIGN.md for the
   stories. Adding a rule = one value of type Syntactic.rule appended
   to [all]; each contributes hooks that the engine drives from a
   single shared AST traversal per file. *)

open Parsetree

let rec lid_head = function
  | Longident.Lident s -> s
  | Longident.Ldot (l, _) -> lid_head l
  | Longident.Lapply (l, _) -> lid_head l

(* Treat [Stdlib.f] and [f] alike. *)
let strip_stdlib = function
  | Longident.Ldot (Longident.Lident "Stdlib", s) -> Longident.Lident s
  | Longident.Ldot (Longident.Ldot (Longident.Lident "Stdlib", m), s) ->
      Longident.Ldot (Longident.Lident m, s)
  | l -> l

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let in_lib path = has_prefix ~prefix:"lib/" path

(* ------------------------------------------------------------------ *)
(* float-equality: =, <> or compare where an operand is syntactically
   float-shaped. Caught in the wild: the logsumexp +inf NaN and the
   zero-weight-tail sampling bug both hid behind exact float tests. *)

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-." ]

let is_float_shaped (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt; _ } -> (
      match strip_stdlib txt with
      | Longident.Ldot (Longident.Lident "Float", _) -> true
      | _ -> false)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match strip_stdlib txt with
      | Longident.Lident op -> List.mem op float_ops
      | Longident.Ldot (Longident.Lident "Float", _) -> true
      | _ -> false)
  | Pexp_constraint
      (_, { ptyp_desc = Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []); _ })
    ->
      true
  | _ -> false

let float_equality =
  {
    Syntactic.name = "float-equality";
    doc =
      "=, <> or compare with a syntactically float-shaped operand (float \
       literal, Float.* call, or +./-./*././/** arithmetic). Use Common.feq \
       ~eps for tolerance comparisons; annotate intentional exact \
       comparisons.";
    applies = (fun _ -> true);
    check =
      Syntactic.Ast_rule
        (fun ~report ->
          {
            Syntactic.no_hooks with
            on_expr =
              (fun e ->
                match e.pexp_desc with
                | Pexp_apply
                    ( { pexp_desc = Pexp_ident { txt; loc }; _ },
                      (_, a) :: (_, b) :: _ ) -> (
                    match strip_stdlib txt with
                    | Longident.Lident (("=" | "<>" | "compare") as op)
                      when is_float_shaped a || is_float_shaped b ->
                        report loc
                          (Printf.sprintf
                             "exact float comparison (%s); use Common.feq \
                              ~eps, or annotate '(* lint: allow \
                              float-equality *)' if exact comparison is \
                              intended"
                             op)
                    | _ -> ())
                | _ -> ());
          });
  }

(* ------------------------------------------------------------------ *)
(* exn-policy: no failwith / Failure under lib/. Precondition failures
   are Invalid_argument; exhausted iteration budgets are
   Common.No_convergence. Catching Failure (e.g. from float_of_string)
   stays legal — only raising is flagged. *)

let exn_policy =
  {
    Syntactic.name = "exn-policy";
    doc =
      "failwith/Failure are banned under lib/: raise Invalid_argument for \
       precondition violations, Common.No_convergence for exhausted \
       iteration budgets, or a dedicated exception.";
    applies = in_lib;
    check =
      Syntactic.Ast_rule
        (fun ~report ->
          {
            Syntactic.no_hooks with
            on_expr =
              (fun e ->
                match e.pexp_desc with
                | Pexp_ident { txt; loc }
                  when strip_stdlib txt = Longident.Lident "failwith" ->
                    report loc
                      "failwith under lib/; use invalid_arg or \
                       Common.no_convergence"
                | Pexp_construct ({ txt; loc }, _)
                  when strip_stdlib txt = Longident.Lident "Failure" ->
                    report loc
                      "constructing Failure under lib/; use invalid_arg or \
                       Common.no_convergence"
                | _ -> ());
          });
  }

(* ------------------------------------------------------------------ *)
(* bare-random: Stdlib.Random outside lib/prob/rng.ml breaks seeded
   reproducibility (every simulation draws through Prob.Rng's
   splittable streams so results are a function of the seed alone). *)

let bare_random =
  {
    Syntactic.name = "bare-random";
    doc =
      "Stdlib.Random outside lib/prob/rng.ml; draw through Prob.Rng so \
       every run is a function of the seed alone.";
    applies = (fun path -> path <> "lib/prob/rng.ml");
    check =
      Syntactic.Ast_rule
        (fun ~report ->
          let flag loc what =
            report loc
              (Printf.sprintf
                 "%s references Stdlib.Random; use Prob.Rng (seeded, \
                  splittable) instead"
                 what)
          in
          {
            on_expr =
              (fun e ->
                match e.pexp_desc with
                | Pexp_ident { txt; loc } when lid_head txt = "Random" ->
                    flag loc "expression"
                | _ -> ());
            on_module_expr =
              (fun m ->
                match m.pmod_desc with
                | Pmod_ident { txt; loc } when lid_head txt = "Random" ->
                    flag loc "module expression"
                | _ -> ());
            on_typ =
              (fun t ->
                match t.ptyp_desc with
                | Ptyp_constr ({ txt; loc }, _) when lid_head txt = "Random" ->
                    flag loc "type"
                | _ -> ());
          });
  }

(* ------------------------------------------------------------------ *)
(* print-in-lib: no stdout printing from library code — stdout belongs
   to bin/ and to the table renderer. Formatter-parameterised printers
   (Format.pp_print_..., Fmt) stay legal. *)

let stdout_printers =
  [
    "print_string";
    "print_bytes";
    "print_char";
    "print_int";
    "print_float";
    "print_endline";
    "print_newline";
  ]

let print_in_lib =
  {
    Syntactic.name = "print-in-lib";
    doc =
      "printing to stdout from lib/ (print_*, Printf.printf, \
       Format.printf/print_*/std_formatter); return strings or take a \
       formatter instead. lib/experiments/table.ml is exempted by \
       lib/experiments/.logitlint.";
    applies = in_lib;
    check =
      Syntactic.Ast_rule
        (fun ~report ->
          {
            Syntactic.no_hooks with
            on_expr =
              (fun e ->
                match e.pexp_desc with
                | Pexp_ident { txt; loc } -> (
                    match strip_stdlib txt with
                    | Longident.Lident s when List.mem s stdout_printers ->
                        report loc
                          (Printf.sprintf "%s prints to stdout from lib/" s)
                    | Longident.Ldot (Longident.Lident "Printf", "printf") ->
                        report loc "Printf.printf prints to stdout from lib/"
                    | Longident.Ldot (Longident.Lident "Format", s)
                      when s = "printf" || s = "std_formatter"
                           || has_prefix ~prefix:"print_" s ->
                        report loc
                          (Printf.sprintf
                             "Format.%s targets stdout from lib/; take a \
                              formatter argument instead"
                             s)
                    | _ -> ())
                | _ -> ());
          });
  }

(* ------------------------------------------------------------------ *)
(* mli-coverage: every lib/ .ml ships an .mli. True today; the rule
   keeps it true. *)

let mli_coverage =
  {
    Syntactic.name = "mli-coverage";
    doc = "every .ml under lib/ must have a matching .mli interface.";
    applies = in_lib;
    check =
      Syntactic.Tree_rule
        (fun ~files ->
          let have = Hashtbl.create 64 in
          List.iter (fun f -> Hashtbl.replace have f ()) files;
          List.filter_map
            (fun f ->
              if
                in_lib f
                && Filename.check_suffix f ".ml"
                && not (Hashtbl.mem have (f ^ "i"))
              then
                Some
                  ( f,
                    "module has no .mli; every lib/ module declares its \
                     interface" )
              else None)
            files);
  }

(* ------------------------------------------------------------------ *)
(* marshal-outside-store: Marshal (and its Stdlib aliases output_value /
   input_value) is banned everywhere except lib/store. Marshalled bytes
   are not versioned, not endian/word-size stable, and deserialise
   without validation — the artifact store exists precisely to replace
   them with checksummed, versioned codecs that fail loudly. *)

let marshal_outside_store =
  {
    Syntactic.name = "marshal-outside-store";
    doc =
      "Marshal / output_value / input_value outside lib/store/: \
       unversioned, unvalidated bytes. Persist artifacts through the \
       Store codecs (framed, checksummed, versioned) instead.";
    applies = (fun path -> not (has_prefix ~prefix:"lib/store/" path));
    check =
      Syntactic.Ast_rule
        (fun ~report ->
          let flag loc what =
            report loc
              (Printf.sprintf
                 "%s uses Marshal outside lib/store/; persist through the \
                  Store codecs instead"
                 what)
          in
          {
            Syntactic.no_hooks with
            on_expr =
              (fun e ->
                match e.pexp_desc with
                | Pexp_ident { txt; loc }
                  when lid_head (strip_stdlib txt) = "Marshal" ->
                    flag loc "expression"
                | Pexp_ident { txt; loc } -> (
                    match strip_stdlib txt with
                    | Longident.Lident (("output_value" | "input_value") as s)
                      ->
                        report loc
                          (Printf.sprintf
                             "%s is Marshal in disguise; persist through the \
                              Store codecs instead"
                             s)
                    | _ -> ())
                | _ -> ());
            on_module_expr =
              (fun m ->
                match m.pmod_desc with
                | Pmod_ident { txt; loc }
                  when lid_head (strip_stdlib txt) = "Marshal" ->
                    flag loc "module expression"
                | _ -> ());
          });
  }

(* ------------------------------------------------------------------ *)
(* bench-json-outside-bench: the bench trajectory subsystem (lib/bench)
   owns the BENCH trajectory filename. A module elsewhere spelling one
   as a literal is about to write a bench artifact without going
   through Bench.Sink — bypassing validation, provenance stamping and
   the atomic-write discipline. *)

let is_bench_json_literal s =
  let base = Filename.basename s in
  has_prefix ~prefix:"BENCH_" base && Filename.check_suffix base ".json"

let bench_json_outside_bench =
  {
    Syntactic.name = "bench-json-outside-bench";
    doc =
      "a BENCH_<name>.json filename literal outside lib/bench/: bench \
       results are written through Bench.Sink (Bench.History owns the \
       path), so every one lands in the BENCH_HISTORY.json trajectory.";
    applies = (fun path -> not (has_prefix ~prefix:"lib/bench/" path));
    check =
      Syntactic.Ast_rule
        (fun ~report ->
          {
            Syntactic.no_hooks with
            on_expr =
              (fun e ->
                match e.pexp_desc with
                | Pexp_constant (Pconst_string (s, loc, _))
                  when is_bench_json_literal s ->
                    report loc
                      (Printf.sprintf
                         "literal %S names a bench artifact outside \
                          lib/bench/; route it through Bench.Sink / \
                          Bench.History"
                         s)
                | _ -> ());
          });
  }

(* ------------------------------------------------------------------ *)
(* wall-clock: Unix.gettimeofday outside lib/common/. The wall clock
   steps under NTP, which silently corrupted bench duration minima;
   durations go through Common.Clock.monotonic_ns/span_s and
   timestamps through Common.Clock.wall_s. *)

let wall_clock =
  {
    Syntactic.name = "wall-clock";
    doc =
      "Unix.gettimeofday outside lib/common/: the wall clock can step \
       backwards under NTP and corrupt duration measurements. Use \
       Common.Clock.monotonic_ns/span_s for durations and \
       Common.Clock.wall_s for timestamp fields.";
    applies = (fun path -> not (has_prefix ~prefix:"lib/common/" path));
    check =
      Syntactic.Ast_rule
        (fun ~report ->
          {
            Syntactic.no_hooks with
            on_expr =
              (fun e ->
                match e.pexp_desc with
                | Pexp_ident { txt; loc }
                  when strip_stdlib txt
                       = Longident.Ldot
                           (Longident.Lident "Unix", "gettimeofday") ->
                    report loc
                      "Unix.gettimeofday measures the steppable wall clock; \
                       use Common.Clock (monotonic_ns/span_s for durations, \
                       wall_s for timestamps)"
                | _ -> ());
          });
  }

let all =
  [
    float_equality;
    exn_policy;
    bare_random;
    print_in_lib;
    mli_coverage;
    marshal_outside_store;
    bench_json_outside_bench;
    wall_clock;
  ]
