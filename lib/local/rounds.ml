open Netgraph

type ('state, 'msg) algorithm = {
  init : int -> 'state * 'msg;
  step : round:int -> node:int -> 'state -> 'msg array -> 'state * 'msg;
}

let m_runs = Obs.Metrics.counter "rounds.runs"
let m_rounds = Obs.Metrics.counter "rounds.executed"
let m_steps = Obs.Metrics.counter "rounds.node_steps"

let run_until g ~max_rounds ~halted alg =
  let n = Graph.n g in
  if n = 0 then ([||], 0)
  else begin
    let states = Array.make n (fst (alg.init 0)) in
    let outbox = Array.make n (snd (alg.init 0)) in
    for v = 0 to n - 1 do
      let s, m = alg.init v in
      states.(v) <- s;
      outbox.(v) <- m
    done;
    let round = ref 0 in
    let all_halted () = Array.for_all halted states in
    while !round < max_rounds && not (all_halted ()) do
      incr round;
      let inbox =
        Array.init n (fun v ->
            Array.map (fun u -> outbox.(u)) (Graph.neighbors g v))
      in
      for v = 0 to n - 1 do
        let s, m = alg.step ~round:!round ~node:v states.(v) inbox.(v) in
        states.(v) <- s;
        outbox.(v) <- m
      done
    done;
    if Obs.Metrics.enabled () then begin
      Obs.Metrics.incr m_runs;
      Obs.Metrics.add m_rounds !round;
      Obs.Metrics.add m_steps (n * !round)
    end;
    (states, !round)
  end

let run g ~rounds alg = fst (run_until g ~max_rounds:rounds ~halted:(fun _ -> false) alg)
