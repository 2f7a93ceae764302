(** Digesting a method's recorded dependencies.

    {!Gcl.Desugar} records, for every method task, which {e other}
    program elements its verification conditions read
    ({!Gcl.Desugar.dep}).  This module turns each recorded dependency
    into a digest of the element {e as the dependent method sees it}, so
    incremental re-verification can re-digest against an edited program
    and re-verify exactly the methods whose view changed.

    Digests are home-sensitive: a specvar definition only enters the
    digest when the dependent method lives in the declaring class,
    mirroring the desugarer's information-hiding rule — so editing a
    private vardef re-verifies the declaring class only, while clients
    keep their stored verdicts.

    A few desugaring inputs are genuinely global — the globalized-member
    set (computed from every static method body in the program), the set
    of class names, and the background well-formed-heap axioms over all
    static object fields.  Those fold into one {!context_digest}; when it
    changes, everything is invalidated.  Corpus cases in
    [test/incremental/] pin down that this context is coarse only when
    it must be. *)

open Javaparser

let md5 (s : string) : string = Digest.to_hex (Digest.string s)

let absent (what : string) : string = md5 ("absent/" ^ what)

(** Digest of one dependency of a method whose enclosing class is
    [home], against [prog].  Total: a dangling dependency (class or
    member deleted) digests to a distinguished "absent" value, which
    correctly differs from every present digest. *)
let dep_digest (prog : Ast.program) ~(home : string) (d : Gcl.Desugar.dep) :
    string =
  let key = Gcl.Desugar.dep_key d in
  match d with
  | Gcl.Desugar.Dep_class c -> (
    match Ast.find_class prog c with Some _ -> md5 ("class/" ^ c) | None -> absent key)
  | Gcl.Desugar.Dep_inv c -> (
    match Ast.find_class prog c with
    | Some cls -> Astdiff.invariants_digest cls
    | None -> absent key)
  | Gcl.Desugar.Dep_fields c -> Astdiff.fields_digest prog c
  | Gcl.Desugar.Dep_specvar (c, v) -> (
    match Ast.find_class prog c with
    | None -> absent key
    | Some cls -> (
      match Ast.find_specvar cls v with
      | Some sv -> Astdiff.specvar_digest ~with_def:(c = home) sv
      | None -> absent key))
  | Gcl.Desugar.Dep_contract (c, m) -> (
    match Ast.find_class prog c with
    | None -> absent key
    | Some cls -> (
      match Ast.find_method cls m with
      | Some md -> Astdiff.contract_digest c md
      | None -> absent key))
  | Gcl.Desugar.Dep_ctor c -> (
    (* which constructor [new c()] runs, and its caller-visible view *)
    match Ast.find_class prog c with
    | None -> absent key
    | Some cls -> (
      match
        List.find_opt (fun m -> m.Ast.m_is_constructor) cls.Ast.c_methods
      with
      | Some ctor -> Astdiff.contract_digest c ctor
      | None -> md5 ("noctor/" ^ c)))
  | Gcl.Desugar.Dep_resolve (c, x) -> (
    (* how identifier [x] resolves inside class [c]: specvar beats
       field beats free logical variable, and the resolved declaration
       itself is part of the view *)
    match Ast.find_class prog c with
    | None -> absent key
    | Some cls -> (
      match Ast.find_specvar cls x with
      | Some sv ->
        md5 ("rs-sv/" ^ Astdiff.specvar_digest ~with_def:(c = home) sv)
      | None -> (
        match Ast.find_field cls x with
        | Some f -> md5 ("rs-fld/" ^ Astdiff.field_digest f)
        | None -> md5 ("rs-free/" ^ c ^ "." ^ x))))
  | Gcl.Desugar.Dep_unq x -> (
    (* unqualified [recv..x]: first class (in program order) declaring a
       field [x], else first declaring a specvar [x] *)
    match
      List.find_opt (fun c -> Ast.find_field c x <> None) prog
    with
    | Some c ->
      md5
        ("unq-fld/" ^ c.Ast.c_name ^ "/"
        ^ Astdiff.field_digest (Option.get (Ast.find_field c x)))
    | None -> (
      match
        List.find_opt (fun c -> Ast.find_specvar c x <> None) prog
      with
      | Some c ->
        md5
          ("unq-sv/" ^ c.Ast.c_name ^ "/"
          ^ Astdiff.specvar_digest
              ~with_def:(c.Ast.c_name = home)
              (Option.get (Ast.find_specvar c x)))
      | None -> absent key))

(** Digest of the desugaring inputs shared by {e every} method task:
    the globalized-member set (recomputed from all static method bodies
    — editing a static method can globalize a member and change how the
    whole program desugars), the ordered list of class names, and the
    inputs of the background well-formed-heap axioms (each static or
    globalized object-typed field of any class).  A change here
    invalidates all stored verdicts. *)
let context_digest (prog : Ast.program) : string =
  let b = Buffer.create 256 in
  let globalized = Gcl.Desugar.compute_globalized prog in
  Buffer.add_string b "ctx/g";
  List.iter
    (fun (c, x) ->
      Buffer.add_string b c;
      Buffer.add_char b '.';
      Buffer.add_string b x;
      Buffer.add_char b ';')
    (List.sort compare globalized);
  Buffer.add_string b "/c";
  List.iter
    (fun (c : Ast.class_decl) ->
      Buffer.add_string b c.Ast.c_name;
      Buffer.add_char b ';')
    prog;
  Buffer.add_string b "/bg";
  List.iter
    (fun (c : Ast.class_decl) ->
      List.iter
        (fun (f : Ast.field_decl) ->
          match f.Ast.f_type with
          | (Ast.Tclass _ | Ast.Tarray _)
            when f.Ast.f_static
                 || List.mem (c.Ast.c_name, f.Ast.f_name) globalized ->
            Buffer.add_string b c.Ast.c_name;
            Buffer.add_char b '.';
            Buffer.add_string b f.Ast.f_name;
            Buffer.add_char b ':';
            Buffer.add_string b (Ast.jtype_to_string f.Ast.f_type);
            Buffer.add_char b ';'
          | _ -> ())
        c.Ast.c_fields)
    prog;
  md5 (Buffer.contents b)

(** The persisted form of a task's dependency set: sorted
    [(key, digest)] pairs.  Keys are the stable strings of
    {!Gcl.Desugar.dep_key}; re-digesting a stored key against an edited
    program goes through {!digest_of_key}. *)
let task_deps (prog : Ast.program) ~(home : string)
    (task : Gcl.Desugar.method_task) : (string * string) list =
  List.map
    (fun d -> (Gcl.Desugar.dep_key d, dep_digest prog ~home d))
    task.Gcl.Desugar.task_deps

(** Re-digest a stored dependency key against [prog].  [None] if the key
    does not parse (a corrupt or future-format store entry — callers
    treat that as "invalidated"). *)
let digest_of_key (prog : Ast.program) ~(home : string) (key : string) :
    string option =
  Option.map (dep_digest prog ~home) (Gcl.Desugar.dep_of_key key)
