(* Tests for Gap_dse.Segstore: record framing, crash recovery (truncation at
   every byte offset), typed corruption, compaction atomicity, flow staleness.
   All byte-level store surgery lives here; the daemon-level crash checks
   (SIGKILL mid-workload, armed store sites, warm-restart identity) are rows
   of the [repro faults] campaign. *)

module Segstore = Gap_dse.Segstore
module Stage_error = Gap_resilience.Stage_error

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_store f =
  let path = Filename.temp_file "gap_segstore" ".store" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* framing: magic + u32 length + u32 crc, payload = u16 keylen + key + data *)
let record_size ~key ~data = 9 + 2 + String.length key + String.length data

let fill path flow records =
  let t, loaded, note = Segstore.open_store ~flow path in
  Alcotest.(check int) "fresh store starts empty" 0 (List.length loaded);
  Alcotest.(check bool) "fresh store has no note" true (note = None);
  List.iter (fun (k, v) -> Segstore.append t ~key:k v) records;
  Segstore.close t

let sample_records =
  [ ("alpha", "payload-one"); ("beta", String.make 40 'x'); ("gamma", "z") ]

let expect_info path =
  match Segstore.validate path with
  | Ok i -> i
  | Error e -> Alcotest.fail ("validate: " ^ Stage_error.to_string e)

let test_roundtrip_append_order () =
  with_store (fun path ->
      fill path "flow-a" sample_records;
      let t, loaded, note = Segstore.open_store ~flow:"flow-a" path in
      Alcotest.(check bool) "clean reopen has no note" true (note = None);
      Alcotest.(check (list (pair string string)))
        "records survive in append order" sample_records loaded;
      (* duplicate keys survive until compaction; last-wins is the caller's *)
      Segstore.append t ~key:"alpha" "payload-two";
      Segstore.close t;
      let _, again, _ = Segstore.open_store ~flow:"flow-a" path in
      Alcotest.(check (list (pair string string)))
        "duplicates kept in order"
        (sample_records @ [ ("alpha", "payload-two") ])
        again;
      let i = expect_info path in
      Alcotest.(check int) "records" 4 i.Segstore.i_records;
      Alcotest.(check int) "distinct keys" 3 i.Segstore.i_keys;
      Alcotest.(check string) "flow" "flow-a" i.Segstore.i_flow)

(* record sizes chosen so cuts land in every frame field *)
let varied_records =
  List.init 6 (fun i ->
      ( Printf.sprintf "key-%02d" i,
        String.init (17 + (13 * i)) (fun j -> Char.chr (32 + ((i + (7 * j)) mod 95)))
      ))

(* Truncate the single segment at EVERY byte offset: recovery must keep
   exactly the longest whole-record prefix, reporting a torn note iff the
   cut is not at a record boundary. At sampled cuts, reopening truncates
   the tear, returns that prefix byte-identically, and appends cleanly. *)
let truncation_matrix records =
  with_store (fun path ->
      fill path "flow-a" records;
      let seg =
        match expect_info path with
        | { Segstore.i_segments = 1; _ } -> (
            let t, _, _ = Segstore.open_store ~flow:"flow-a" path in
            match Segstore.segment_names t with
            | [ s ] ->
                Segstore.close t;
                s
            | l -> Alcotest.fail (Printf.sprintf "%d segments" (List.length l)))
        | i ->
            Alcotest.fail (Printf.sprintf "%d segments" i.Segstore.i_segments)
      in
      let seg_path = Filename.concat path seg in
      let pristine = read_file seg_path in
      let len = String.length pristine in
      let boundaries =
        (* byte offsets at which a cut is a whole-record prefix *)
        let rec go acc off = function
          | [] -> List.rev (off :: acc)
          | (k, v) :: rest ->
              go (off :: acc) (off + record_size ~key:k ~data:v) rest
        in
        go [] 0 records
      in
      Alcotest.(check int)
        "framing arithmetic matches the file" len
        (List.fold_left max 0 boundaries);
      for cut = 0 to len do
        write_file seg_path (String.sub pristine 0 cut);
        let whole = List.filter (fun b -> b <= cut) boundaries in
        let expected_records = List.length whole - 1 in
        let at_boundary = List.mem cut boundaries in
        (match Segstore.validate path with
        | Error e ->
            Alcotest.fail
              (Printf.sprintf "cut at %d: %s" cut (Stage_error.to_string e))
        | Ok i ->
            Alcotest.(check int)
              (Printf.sprintf "cut at %d keeps whole-record prefix" cut)
              expected_records i.Segstore.i_records;
            Alcotest.(check bool)
              (Printf.sprintf "cut at %d torn note iff mid-record" cut)
              (not at_boundary)
              (i.Segstore.i_torn <> None));
        if cut mod 37 = 3 || cut = len - 3 then begin
          let t, loaded, note = Segstore.open_store ~flow:"flow-a" path in
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "cut at %d: reopen keeps the prefix" cut)
            (List.filteri (fun i _ -> i < expected_records) records)
            loaded;
          Alcotest.(check bool)
            (Printf.sprintf "cut at %d: recovery note iff mid-record" cut)
            (not at_boundary) (note <> None);
          Segstore.append t ~key:"post-tear" "after-recovery";
          Segstore.close t;
          let i = expect_info path in
          Alcotest.(check int)
            (Printf.sprintf "cut at %d: appended past the scar" cut)
            (expected_records + 1) i.Segstore.i_records;
          Alcotest.(check bool)
            (Printf.sprintf "cut at %d: scar healed" cut)
            true (i.Segstore.i_torn = None)
        end
      done)

let test_truncation_matrix () =
  truncation_matrix sample_records;
  truncation_matrix varied_records

let test_corrupt_byte_is_typed () =
  with_store (fun path ->
      (* the current flow, so that Cache.create scans the records too *)
      let flow = Gap_dse.Eval.flow_version in
      let data = String.make 40 'x' in
      fill path flow (List.init 4 (fun i -> (Printf.sprintf "ck-%d" i, data)));
      let t, _, _ = Segstore.open_store ~flow path in
      let seg = List.hd (Segstore.segment_names t) in
      Segstore.close t;
      let seg_path = Filename.concat path seg in
      let pristine = read_file seg_path in
      let rec_len = record_size ~key:"ck-0" ~data in
      let flip pos =
        let b = Bytes.of_string pristine in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5A));
        write_file seg_path (Bytes.to_string b)
      in
      (* a defect before the tail, wherever it lands in a frame, is a typed
         fault naming the segment and the defective record's offset *)
      List.iter
        (fun (what, pos, offset, detail) ->
          flip pos;
          (match Segstore.validate path with
          | Ok _ -> Alcotest.fail (what ^ ": pre-tail corruption validated as clean")
          | Error (Stage_error.Storage_fault f) ->
              Alcotest.(check string) (what ^ ": fault names the segment") seg f.segment;
              Alcotest.(check int) (what ^ ": fault names the record offset") offset f.offset;
              Alcotest.(check string) (what ^ ": fault detail") detail f.detail
          | Error e ->
              Alcotest.fail (what ^ ": wrong error type: " ^ Stage_error.to_string e));
          (* opening for use raises the same typed failure, directly and
             through the result cache *)
          (match Segstore.open_store ~flow path with
          | _ -> Alcotest.fail (what ^ ": corrupt store opened")
          | exception Stage_error.Stage_failure (Stage_error.Storage_fault f) ->
              Alcotest.(check string) (what ^ ": open names the segment") seg f.segment);
          (match Gap_dse.Cache.create ~store:path () with
          | _ -> Alcotest.fail (what ^ ": cache accepted a corrupt store")
          | exception Stage_error.Stage_failure (Stage_error.Storage_fault f) ->
              Alcotest.(check string) (what ^ ": cache names the segment") seg f.segment);
          write_file seg_path pristine)
        [
          ("payload byte of record 0", 9 + 2 + 2, 0, "record checksum mismatch");
          ("CRC byte of record 1", rec_len + 6, rec_len, "record checksum mismatch");
          ("magic byte of record 2", 2 * rec_len, 2 * rec_len, "bad record magic");
          (* the low length byte: the frame stays in bounds but misaligned,
             so the checksum catches it *)
          ("length field of record 1", rec_len + 1, rec_len, "record checksum mismatch");
        ];
      (* a length that overshoots the last segment's end is indistinguishable
         from a torn append, by construction: recovery keeps exactly the
         records before the defect *)
      flip (rec_len + 2);
      let i = expect_info path in
      Alcotest.(check int) "overshooting length keeps the prefix" 1 i.Segstore.i_records;
      Alcotest.(check bool) "overshooting length reads as a tear" true
        (i.Segstore.i_torn <> None);
      write_file seg_path pristine;
      let i = expect_info path in
      Alcotest.(check int) "pristine store validates" 4 i.Segstore.i_records;
      Alcotest.(check bool) "pristine store untorn" true (i.Segstore.i_torn = None))

let test_flow_mismatch_reads_cold () =
  with_store (fun path ->
      fill path "flow-a" sample_records;
      let t, loaded, note = Segstore.open_store ~flow:"flow-b" path in
      Alcotest.(check int) "stale flow yields no records" 0 (List.length loaded);
      Alcotest.(check bool) "no note" true (note = None);
      Alcotest.(check bool) "marked stale" true (Segstore.stale t);
      (* first write resets the store to the current flow *)
      Segstore.append t ~key:"fresh" "v";
      Alcotest.(check bool) "write clears staleness" false (Segstore.stale t);
      Segstore.close t;
      let i = expect_info path in
      Alcotest.(check string) "manifest re-flowed" "flow-b" i.Segstore.i_flow;
      Alcotest.(check int) "old-flow records gone" 1 i.Segstore.i_records)

let test_rewrite_compacts_and_sweeps () =
  with_store (fun path ->
      fill path "flow-a" (sample_records @ [ ("alpha", "superseded") ]);
      let t, _, _ = Segstore.open_store ~flow:"flow-a" path in
      let gen0 = Segstore.generation t in
      Segstore.rewrite t [ ("alpha", "superseded"); ("beta", String.make 40 'x') ];
      Alcotest.(check int) "compaction drops duplicates" 2 (Segstore.records t);
      Alcotest.(check bool) "generation advances" true (Segstore.generation t > gen0);
      Segstore.close t;
      (* litter the directory as an interrupted compaction would *)
      write_file (Filename.concat path "seg-9999-0000.seg") "garbage";
      write_file (Filename.concat path "stray.tmp") "garbage";
      let t, loaded, note = Segstore.open_store ~flow:"flow-a" path in
      Alcotest.(check bool) "strays do not corrupt recovery" true (note = None);
      Alcotest.(check (list (pair string string)))
        "compacted records survive"
        [ ("alpha", "superseded"); ("beta", String.make 40 'x') ]
        loaded;
      Segstore.close t;
      Alcotest.(check bool) "stray segment swept" false
        (Sys.file_exists (Filename.concat path "seg-9999-0000.seg"));
      Alcotest.(check bool) "stray temp swept" false
        (Sys.file_exists (Filename.concat path "stray.tmp")))

let test_segment_roll () =
  with_store (fun path ->
      let t, _, _ = Segstore.open_store ~segment_bytes:64 ~flow:"flow-a" path in
      for i = 0 to 9 do
        Segstore.append t ~key:(Printf.sprintf "k%02d" i) (String.make 30 'p')
      done;
      let segs = Segstore.segment_names t in
      Alcotest.(check bool) "tiny bound rolls segments" true
        (List.length segs > 1);
      Segstore.close t;
      let _, loaded, note = Segstore.open_store ~segment_bytes:64 ~flow:"flow-a" path in
      Alcotest.(check bool) "multi-segment reopen is clean" true (note = None);
      Alcotest.(check int) "all records recovered" 10 (List.length loaded);
      (* a mid-record defect in a NON-last segment is corruption, not a tear *)
      let first = Filename.concat path (List.hd segs) in
      let pristine = read_file first in
      write_file first (String.sub pristine 0 (String.length pristine - 1));
      (match Segstore.validate path with
      | Ok _ -> Alcotest.fail "short non-last segment validated as clean"
      | Error (Stage_error.Storage_fault f) ->
          Alcotest.(check string) "fault names the short segment"
            (List.hd segs) f.segment
      | Error e ->
          Alcotest.fail ("wrong error type: " ^ Stage_error.to_string e));
      write_file first pristine;
      ignore (expect_info path))

let test_missing_and_foreign_paths () =
  with_store (fun path ->
      Alcotest.(check bool) "absent path is not a store" false
        (Segstore.is_store path);
      (match Segstore.validate path with
      | Ok _ -> Alcotest.fail "missing store validated"
      | Error _ -> ());
      fill path "flow-a" sample_records;
      Alcotest.(check bool) "store detected" true (Segstore.is_store path);
      (* a malformed manifest is a typed fault naming MANIFEST *)
      write_file (Filename.concat path Segstore.manifest_name) "not json {";
      match Segstore.validate path with
      | Ok _ -> Alcotest.fail "malformed manifest validated"
      | Error (Stage_error.Storage_fault f) ->
          Alcotest.(check string) "fault names the manifest"
            Segstore.manifest_name f.segment
      | Error e -> Alcotest.fail ("wrong error type: " ^ Stage_error.to_string e))

let suite =
  [
    ("roundtrip append order", `Quick, test_roundtrip_append_order);
    ("truncation matrix", `Quick, test_truncation_matrix);
    ("corrupt byte typed", `Quick, test_corrupt_byte_is_typed);
    ("flow mismatch reads cold", `Quick, test_flow_mismatch_reads_cold);
    ("rewrite compacts and sweeps", `Quick, test_rewrite_compacts_and_sweeps);
    ("segment roll", `Quick, test_segment_roll);
    ("missing and foreign paths", `Quick, test_missing_and_foreign_paths);
  ]
