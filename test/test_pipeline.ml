(* The first-class pipeline surface (api_version 2).

   Three things are pinned here: the spec grammar round-trips (property
   test over arbitrary pipelines), bad specs fail with the offending
   token named, and the toggle record maps onto the builtin pipelines.
   That the wire's legacy toggle members decode to the same compile as
   the equivalent spec is pinned in test_service.ml. *)

module P = Openmpopt.Pass_manager.Pipeline
module A = Ompgpu_api

let tiny = Proxyapps.App.Tiny
let app_source name = (Proxyapps.Apps.find_exn name).Proxyapps.App.omp_source tiny

(* ------------------------------------------------------------------ *)
(* Spec grammar: round-trip property                                   *)
(* ------------------------------------------------------------------ *)

let gen_pipeline =
  QCheck.Gen.(
    let* name =
      oneof
        [
          return "fast";
          return "full";
          return "custom";
          map
            (fun cs -> String.concat "" (List.map (String.make 1) cs))
            (list_size (int_range 1 12)
               (oneofl
                  [ 'a'; 'b'; 'z'; 'A'; 'Z'; '0'; '9'; '_'; '-' ]));
        ]
    in
    (* non-empty pass list, duplicates allowed (a pass may legitimately
       run twice per round), order free *)
    let* passes = list_size (int_range 1 12) (oneofl P.all_passes) in
    let* rounds = int_range 1 P.max_rounds in
    let* grouping = bool in
    let* heap_to_shared = bool in
    return { P.name; passes; rounds; grouping; heap_to_shared })

let arb_pipeline =
  QCheck.make gen_pipeline ~print:P.to_string

let test_spec_roundtrip =
  Helpers.qtest ~count:500 "pipeline spec round-trips" arb_pipeline (fun p ->
      match P.of_string (P.to_string p) with
      | Error msg ->
        QCheck.Test.fail_reportf "own spec rejected: %s (spec %S)" msg
          (P.to_string p)
      | Ok p' ->
        if not (P.equal p p') then
          QCheck.Test.fail_reportf "round-trip changed the pipeline: %S -> %S"
            (P.to_string p) (P.to_string p');
        (* the fingerprint is the semantic identity: it must survive too *)
        String.equal (P.fingerprint p) (P.fingerprint p'))

let test_builtins () =
  Alcotest.(check bool)
    "bare name resolves the fast builtin" true
    (P.of_string "fast" = Ok P.fast);
  Alcotest.(check bool)
    "bare name resolves the full builtin" true
    (P.of_string " full " = Ok P.full);
  Alcotest.(check string)
    "fast spec golden" "fast=internalize,fold,cleanup@1" (P.to_string P.fast);
  (* the builtin names stay attached through a spec round-trip *)
  (match P.of_string (P.to_string P.full) with
  | Ok p -> Alcotest.(check string) "full keeps its name" "full" p.P.name
  | Error e -> Alcotest.failf "full spec rejected: %s" e);
  (* a nameless spec parses as "custom" *)
  match P.of_string "internalize,cleanup@2!nogroup" with
  | Ok p ->
    Alcotest.(check string) "anonymous specs are \"custom\"" "custom" p.P.name;
    Alcotest.(check int) "rounds parsed" 2 p.P.rounds;
    Alcotest.(check bool) "!nogroup parsed" false p.P.grouping;
    Alcotest.(check bool) "!noshared untouched" true p.P.heap_to_shared
  | Error e -> Alcotest.failf "anonymous spec rejected: %s" e

let test_bad_specs () =
  let expect_error what spec fragment =
    match P.of_string spec with
    | Ok p -> Alcotest.failf "%s: accepted as %S" what (P.to_string p)
    | Error msg ->
      let contains s frag =
        let ls = String.length s and lf = String.length frag in
        let rec go i = i + lf <= ls && (String.sub s i lf = frag || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: message %S mentions %S" what msg fragment)
        true (contains msg fragment)
  in
  expect_error "unknown pass" "internalize,warp-speed@2" "warp-speed";
  expect_error "unknown pass lists the known ones" "warp-speed" "internalize";
  expect_error "empty body" "tier=" "empty pipeline";
  expect_error "zero rounds" "fold@0" "out of range";
  expect_error "rounds beyond the cap" "fold@99" "out of range";
  expect_error "garbage rounds" "fold@many" "invalid pipeline round";
  expect_error "unknown flag" "fold@1!turbo" "!turbo";
  expect_error "invalid name" "no spaces=fold@1" "invalid pipeline name"

(* ------------------------------------------------------------------ *)
(* Identity: the default toggles are the [full] pipeline               *)
(* ------------------------------------------------------------------ *)

let test_of_options_maps_to_full () =
  let p = P.of_options Openmpopt.Pass_manager.default_options in
  Alcotest.(check bool)
    "default options are the full builtin" true (P.equal p P.full);
  Alcotest.(check string)
    "same fingerprint" (P.fingerprint P.full) (P.fingerprint p);
  (* a disabled pass leaves the builtin set and loses the name *)
  let p' =
    P.of_options
      { Openmpopt.Pass_manager.default_options with disable_spmdization = true }
  in
  Alcotest.(check string) "custom once toggled" "custom" p'.P.name;
  Alcotest.(check bool)
    "spmdize dropped" false (List.mem P.Spmdize p'.P.passes)

let test_fast_pipeline_differs () =
  (* the fast tier must be a real tier: cheaper identity, distinct cache
     key, and still a successful compile *)
  let file = "x.momp" in
  let source = app_source "su3bench" in
  let full = A.Config.(default |> with_pipeline A.Pipeline.full) in
  let fast = A.Config.(default |> with_pipeline A.Pipeline.fast) in
  Alcotest.(check bool)
    "fast and full have distinct cache keys" false
    (String.equal
       (A.cache_key ~file ~config:full ~source)
       (A.cache_key ~file ~config:fast ~source));
  let r = A.compile_buffered ~config:fast ~file source in
  Alcotest.(check int) "fast tier compiles cleanly" 0 r.A.exit_code

let suite =
  [
    test_spec_roundtrip;
    Alcotest.test_case "builtins" `Quick test_builtins;
    Alcotest.test_case "bad-specs" `Quick test_bad_specs;
    Alcotest.test_case "of-options-maps-to-full" `Quick
      test_of_options_maps_to_full;
    Alcotest.test_case "fast-is-a-distinct-tier" `Quick
      test_fast_pipeline_differs;
  ]
