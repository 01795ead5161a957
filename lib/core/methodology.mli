(** Design-methodology descriptors.

    "When designing a custom processor, the designer has a full range of
    choices in design style" (Sec. 3). A methodology fixes one choice per
    factor axis; {!Gap_model} turns the choices into a speed estimate. *)

type pipelining =
  | Unpipelined  (** control-dominated ASIC practice *)
  | Pipelined of int  (** number of stages *)

type floorplanning = Automatic_scatter | Careful
type library_quality = Poor_two_drive | Rich
type sizing_effort = None_minimal | Critical_path_sized
type logic_family = Static_only | Domino_on_critical
type clocking = Asic_tree | Custom_tuned_tree

type process_access =
  | Worst_case_slow_fab  (** signoff rating, committed to a slower foundry *)
  | Worst_case_typical_fab
  | Speed_tested  (** per-part binning of an ASIC (Sec. 8.3) *)
  | Best_fab_binned  (** custom: best plant, top bins sold as such *)

type t = {
  meth_name : string;
  pipelining : pipelining;
  floorplanning : floorplanning;
  library : library_quality;
  sizing : sizing_effort;
  logic_family : logic_family;
  clocking : clocking;
  process : process_access;
}

val typical_asic : t
(** Unpipelined, scattered, decent library but no sizing effort, static,
    ASIC tree, slow-fab worst-case rating: the 120-150 MHz design. *)

val good_asic : t
(** What the paper says ASIC flows {e can} do: pipelined x5, floorplanned,
    rich library, sized, speed-tested. *)

val custom : t
(** Alpha/PPC practice: deep pipeline, manual floorplan, continuous sizing,
    domino on critical paths, tuned clock, best fab. *)
