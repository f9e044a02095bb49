package pdt

import "repro/internal/core"

// Classes returns fresh class descriptors for every J-PDT type. Pass the
// result to core.Config.Classes (class descriptors carry a per-heap id, so
// each heap needs its own instances).
func Classes() []*core.Class {
	return []*core.Class{
		{
			Name:    ClassString,
			Factory: func(o *core.Object) core.PObject { return &PString{Object: o} },
		},
		{
			Name:    ClassBytes,
			Factory: func(o *core.Object) core.PObject { return &PBytes{Object: o} },
		},
		{
			Name:    ClassLongArr,
			Factory: func(o *core.Object) core.PObject { return &PLongArray{Object: o} },
		},
		{
			Name:    ClassRefArr,
			Factory: func(o *core.Object) core.PObject { return &PRefArray{Object: o} },
			Refs: func(o *core.Object) []uint64 {
				offs := make([]uint64, o.Size()/8)
				for i := range offs {
					offs[i] = uint64(i) * 8
				}
				return offs
			},
		},
		{
			Name:    ClassExtArr,
			Factory: func(o *core.Object) core.PObject { return &PExtArray{Object: o} },
			Refs:    func(o *core.Object) []uint64 { return []uint64{extArrRef} },
		},
		{
			Name:    ClassMap,
			Factory: func(o *core.Object) core.PObject { return &Map{Object: o} },
			Refs:    func(o *core.Object) []uint64 { return []uint64{mapArrRef} },
		},
	}
}
