(* The random structured programs the property suites share: loops,
   branches, calls, arrays, switches and try/catch, every loop bounded.
   [arb_program] draws one linked program. *)

open Workloads.Dsl
module S = Bytecode.Structured

(* Locals: ints x, acc; array a (8 cells).  Helper methods f (int->int,
   possibly throwing) and g (int->int) are always defined.  All generated
   loops are bounded. *)

let gen_expr_leaf =
  QCheck.Gen.oneofl
    [
      i 1; i 7; i (-3); v "x"; v "acc"; v "a" @. (v "x" &! i 7);
      call "g" [ v "x" ];
    ]

let rec gen_expr depth st =
  let open QCheck.Gen in
  if depth = 0 then gen_expr_leaf st
  else
    (frequency
       [
         (3, gen_expr_leaf);
         ( 2,
           map2 (fun a b -> a +! b) (gen_expr (depth - 1)) (gen_expr (depth - 1)) );
         ( 1,
           map2 (fun a b -> (a *! b) &! i 0xFFFF) (gen_expr (depth - 1))
             (gen_expr (depth - 1)) );
         (1, map (fun a -> a ^! i 0x55) (gen_expr (depth - 1)));
         (1, map (fun a -> call "f" [ a &! i 0xFF ]) (gen_expr (depth - 1)));
       ])
      st

let rec gen_stmts depth st =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (3, map (fun e -> [ set "acc" ((v "acc" +! e) &! i 0xFFFFF) ]) (gen_expr 2));
        (2, map (fun e -> [ set "x" (e &! i 0xFFF) ]) (gen_expr 1));
        (1, map (fun e -> [ seti (v "a") (v "x" &! i 7) (e &! i 0xFFFF) ]) (gen_expr 1));
      ]
  in
  if depth = 0 then leaf st
  else
    (frequency
       [
         (3, leaf);
         ( 2,
           map3
             (fun c a b -> [ if_ (c &! i 1 =! i 0) a b ])
             (gen_expr 1) (gen_stmts (depth - 1)) (gen_stmts (depth - 1)) );
         ( 2,
           map (fun body -> [ for_ "k" (i 0) (i 40) (body @ [ incr_ "x" ]) ])
             (gen_stmts (depth - 1)) );
         ( 1,
           map
             (fun body ->
               [
                 switch (v "x" &! i 3)
                   [ (0, body); (2, [ set "x" (v "x" +! i 1) ]) ]
                   [ set "acc" (v "acc" ^! i 9) ];
               ])
             (gen_stmts (depth - 1)) );
         ( 1,
           map
             (fun body ->
               [
                 try_
                   (body @ [ set "x" (call "f" [ v "x" &! i 0xFF ]) ])
                   ~catch:("Boom", "ex")
                   [ set "acc" (v "acc" +! getf "Boom" "payload" (v "ex")) ];
               ])
             (gen_stmts (depth - 1)) );
         (1, map2 (fun a b -> a @ b) (gen_stmts (depth - 1)) (gen_stmts (depth - 1)));
       ])
      st

let build_program stmts =
  let p = S.create () in
  S.def_class p ~name:"Boom" ~fields:[ ("payload", S.I) ] ~methods:[] ();
  (* f throws for one rare argument value *)
  S.def_method p ~name:"f" ~args:[ ("n", S.I) ] ~ret:S.I
    ~body:
      [
        when_ (v "n" =! i 137)
          [
            decl "b" S.R (new_obj "Boom");
            setf "Boom" "payload" (v "b") (i 5);
            throw (v "b");
          ];
        ret ((v "n" *! i 17) &! i 0xFFF);
      ]
    ();
  S.def_method p ~name:"g" ~args:[ ("n", S.I) ] ~ret:S.I
    ~body:[ ret ((v "n" +! i 11) &! i 0xFFF) ]
    ();
  S.def_method p ~name:"main" ~args:[] ~ret:S.I
    ~body:
      ([
         decl_i "x" (i 3);
         decl_i "acc" (i 0);
         decl "a" (S.Arr S.I) (new_arr S.I (i 8));
       ]
      @ stmts
      @ [ ret (v "acc") ])
    ();
  S.link p ~entry:"main"

let arb_program =
  QCheck.make
    ~print:(fun _ -> "<random program>")
    QCheck.Gen.(map build_program (gen_stmts 3))
