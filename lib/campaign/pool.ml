type 'a queue = {
  m : Mutex.t;
  nonempty : Condition.t;
  items : 'a Queue.t;
  mutable closed : bool;
}

let queue_create () =
  {
    m = Mutex.create ();
    nonempty = Condition.create ();
    items = Queue.create ();
    closed = false;
  }

let push q x =
  Mutex.lock q.m;
  Queue.push x q.items;
  Condition.signal q.nonempty;
  Mutex.unlock q.m

let close q =
  Mutex.lock q.m;
  q.closed <- true;
  Condition.broadcast q.nonempty;
  Mutex.unlock q.m

(* blocks until an item is available or the queue is closed and drained *)
let pop q =
  Mutex.lock q.m;
  let rec loop () =
    match Queue.take_opt q.items with
    | Some x ->
      Mutex.unlock q.m;
      Some x
    | None ->
      if q.closed then (
        Mutex.unlock q.m;
        None)
      else (
        Condition.wait q.nonempty q.m;
        loop ())
  in
  loop ()

let run ~workers tasks =
  let n = Array.length tasks in
  if workers <= 1 || n <= 1 then Array.map (fun task -> task ()) tasks
  else begin
    (* one writer per slot, and [Domain.join] publishes every write *)
    let slots = Array.make n None in
    let q = queue_create () in
    let worker () =
      let rec loop () =
        match pop q with
        | None -> ()
        | Some i ->
          slots.(i) <- Some (tasks.(i) ());
          loop ()
      in
      loop ()
    in
    let domains =
      Array.init (min workers n) (fun _ -> Domain.spawn worker)
    in
    for i = 0 to n - 1 do
      push q i
    done;
    close q;
    Array.iter Domain.join domains;
    Array.map Option.get slots
  end
