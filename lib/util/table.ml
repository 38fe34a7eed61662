let render ~header rows =
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  let note_row r =
    List.iteri
      (fun i cell ->
        if i < ncols then widths.(i) <- max widths.(i) (String.length cell))
      r
  in
  note_row header;
  List.iter note_row rows;
  let pad i s =
    let n = widths.(i) - String.length s in
    if n <= 0 then s
    else if i = 0 then s ^ String.make n ' '
    else String.make n ' ' ^ s
  in
  let fmt_row r =
    let cells = List.mapi pad r in
    "| " ^ String.concat " | " cells ^ " |"
  in
  let sep =
    "|"
    ^ String.concat "|"
        (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (fmt_row header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (fmt_row r);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf
